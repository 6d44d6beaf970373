(** Replay a trace onto any machine.

    The player recreates domains and segments in trace order (indices line
    up by construction) and executes every event. Traces recorded by
    {!Recorder} replay with identical access outcomes on every machine
    model — the cross-machine agreement invariant as a library feature. *)

open Sasos_addr
open Sasos_os

type error = {
  at : int;  (** 0-based event index *)
  event : Event.t;
  reason : string;
}

val replay :
  Event.t list -> System_intf.packed -> (Access.outcome list, error) result
(** Execute the trace; the result lists the outcome of each [Access] event
    in order. Fails (without raising) on a malformed trace: references to
    domains/segments that do not exist yet, offsets outside a segment, and
    the [segment], [charge] and [destroy-domain] events the machine
    refuses (an empty, oversized or unalignable segment, a negative
    charge, destroying the running domain). *)

val replay_exn : Event.t list -> System_intf.packed -> Access.outcome list
(** @raise Invalid_argument on a malformed trace. *)
