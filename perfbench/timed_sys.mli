(** A timing machine: implements {!Sasos.Os.System_intf.SYSTEM} by
    forwarding every operation to an inner machine, adding the host time
    each call spends inside the inner machine to a shared set of
    per-operation counters. Like the trace recorder, it wraps any machine
    and any workload runs on it unchanged; the simulated behaviour is the
    inner machine's, bit for bit. *)

type counters = { ns : int array; calls : int array }
(** Indexed like {!op_names}: nanoseconds inside the inner machine and
    number of calls. Several wrapped machines may share one set. *)

val op_names : string array
(** Operation classes, in counter order: ["access"], ["switch"],
    ["attach"], ["detach"], ["grant"], ["protect"] (protect_all and
    protect_segment), ["unmap"], ["destroy"] (domains and segments),
    ["new"] (domains and segments), ["over_allow"], ["charge"]. The
    accessors ([os], [metrics], [current_domain],
    [resident_prot_entries_for]) are forwarded untimed. *)

val counters : unit -> counters
val total_ns : counters -> int

include Sasos.Os.System_intf.SYSTEM

val wrap : counters -> Sasos.Os.System_intf.packed -> t
val pack : t -> Sasos.Os.System_intf.packed
