(** Trace-compiled batch execution engine.

    The scalar path walks an [Event.t list] and interprets each boxed
    constructor ({!Sasos_trace.Player}). This module compiles the same
    list once into a flat int-array op stream — one opcode tag plus fixed
    operand lanes per slot, segment names interned in a side pool — and
    runs a tail-recursive decode-execute loop over it. Semantics are
    replicated from the player exactly: same handle tables by creation
    index, same bounds checks with the same reason strings (surfaced as
    the same {!Sasos_trace.Player.error}), same per-event observability
    phases; machine exceptions propagate uncaught on both paths. The
    equivalence is gated by a QCheck lockstep property and corpus replay
    on both engines (test/test_engine.ml, test/corpus_replay.ml). *)

open Sasos_addr
open Sasos_os

type t = Scalar | Batch

val of_string : string -> t option
(** ["scalar"] / ["batch"] (case-insensitive). *)

val to_string : t -> string

val default_engine : unit -> t
(** Process-global default, initially [Scalar]. *)

val set_default_engine : t -> unit
(** Set the global default. Called by the CLI's [--engine] flag before any
    machine is built; worker domains spawned afterwards observe it. *)

type program
(** A compiled op stream: a preallocated int array of
    [(tag | immediates) :: 3 operand lanes] slots plus an interned name
    pool. No per-op boxing. *)

val length : program -> int
(** Number of ops (= events compiled). *)

val compile : Sasos_trace.Event.t list -> program
(** Lower a trace to a program. Operands are validated against their lane
    widths — index lanes (domain, segment, pages, page, name index) carry
    26 bits, offset lanes 31 bits, align shifts 6 bits.
    @raise Invalid_argument naming the op index when an operand does not
    fit its lane (the player would defer such values to replay time; the
    compiler rejects them up front). *)

val to_events : program -> Sasos_trace.Event.t list
(** Exact inverse of {!compile}: decoding re-serializes to the original
    trace (property-tested round trip). *)

type run = {
  outcomes : Access.outcome list;
      (** outcome of each [Access] event, in order *)
  domains : Pd.t option array;
      (** handles by creation index; [None] once destroyed *)
  segments : Segment.t option array;
}

val exec : program -> System_intf.packed -> (run, Sasos_trace.Player.error) result
(** Decode-execute the program against a machine. The engine's own
    trace-validity errors (unknown or destroyed handles, offsets and pages
    outside a segment) match {!Sasos_trace.Player.replay}'s cases and
    reason strings exactly. Exceptions raised by the machine propagate,
    including the segment, charge and destroy-domain refusals the player
    reports as errors, so the differential harness sees a machine's
    crash the same way on both engines. *)

val replay :
  Sasos_trace.Event.t list ->
  System_intf.packed ->
  (Access.outcome list, Sasos_trace.Player.error) result
(** {!Sasos_trace.Player.replay} or compile-and-{!exec}, dispatching on
    {!default_engine}. *)
