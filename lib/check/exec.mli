(** Script executor for machine implementations.

    Runs a conformance script against a real machine (or any packed
    [SYSTEM], e.g. a trace recorder), creating the geometry's domains and
    segments in the same prologue order as {!Op.to_events}, and returns
    the observable behaviour the oracle predicts: the outcome of every
    access plus whether the machine's hardware fast path over-allows
    relative to its own OS truth at the end of the script. *)

open Sasos_addr

type result = {
  outcomes : Access.outcome list;  (** one per [Acc], in script order *)
  over_allow : bool;
      (** true when {!Sasos_os.System_intf.SYSTEM.hw_over_allows} reports
          a hardware entry granting more than the OS truth, probed over
          every (live domain, live page) pair at end of script *)
}

val run_packed :
  ?keep:(Op.t -> bool) ->
  Op.geom ->
  Op.t list ->
  Sasos_os.System_intf.packed ->
  result
(** [keep] is the mutation hook: operations for which it returns [false]
    are silently dropped on the machine side only — modelling an
    implementation that forgets to apply them — while the oracle still
    sees the full script. Default keeps everything. *)

val run :
  ?keep:(Op.t -> bool) ->
  Op.geom ->
  Op.t list ->
  Sasos_machine.Sys_select.variant ->
  result
(** [run_packed] on a fresh machine of the given variant built from
    {!Sasos_os.Config.default}. *)
