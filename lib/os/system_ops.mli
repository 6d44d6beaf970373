(** Convenience wrappers for driving a packed machine
    ({!System_intf.packed}) without unpacking the existential by hand.
    Workloads, experiments, examples and tests are all written against
    these; each function forwards to the corresponding operation of the
    packed machine's implementation. *)

open Sasos_addr

val name : System_intf.packed -> string
val model : System_intf.packed -> System_intf.model
val os : System_intf.packed -> Os_core.t
val metrics : System_intf.packed -> Sasos_hw.Metrics.t
val new_domain : System_intf.packed -> Pd.t
val current_domain : System_intf.packed -> Pd.t
val switch_domain : System_intf.packed -> Pd.t -> unit

val destroy_domain : System_intf.packed -> Pd.t -> unit
(** @raise Invalid_argument if the domain is currently running. *)

val new_segment :
  System_intf.packed ->
  ?name:string ->
  ?align_shift:int ->
  pages:int ->
  unit ->
  Segment.t

val destroy_segment : System_intf.packed -> Segment.t -> unit
val attach : System_intf.packed -> Pd.t -> Segment.t -> Rights.t -> unit
val detach : System_intf.packed -> Pd.t -> Segment.t -> unit
val grant : System_intf.packed -> Pd.t -> Va.t -> Rights.t -> unit
val protect_all : System_intf.packed -> Va.t -> Rights.t -> unit

val protect_segment :
  System_intf.packed -> Pd.t -> Segment.t -> Rights.t -> unit

val unmap_page : System_intf.packed -> Va.vpn -> unit
val access : System_intf.packed -> Access.kind -> Va.t -> Access.outcome
val resident_prot_entries_for : System_intf.packed -> Va.t -> int
val hw_over_allows : System_intf.packed -> (Pd.t * Va.t) list -> bool

val charge_external :
  System_intf.packed -> ?page_ins:int -> ?page_outs:int -> cycles:int ->
  unit -> unit
(** Account workload-level costs the machine does not model (a DSM network
    fetch, compression work, a checkpoint disk write). Workloads must use
    this instead of mutating {!metrics} directly: the charge goes through
    the SYSTEM interface, so a trace recorder captures it and a replay of
    the trace re-applies it — the replay then reports the recorded run's
    cycle totals. @raise Invalid_argument on a negative amount. *)

val read : System_intf.packed -> Va.t -> Access.outcome
(** [access sys Read va]. *)

val write : System_intf.packed -> Va.t -> Access.outcome
(** [access sys Write va]. *)

val must_ok : System_intf.packed -> Access.kind -> Va.t -> unit
(** Access that must succeed.
    @raise Failure if the machine faults — used by workloads at points
    where the protocol guarantees access. *)

val with_fault_handler :
  System_intf.packed -> Access.kind -> Va.t -> handler:(unit -> unit) -> unit
(** Access retried once after running [handler] on a protection fault —
    the "trap the access, fix, restart" pattern of every Table 1
    application. @raise Failure if the retry faults again. *)
