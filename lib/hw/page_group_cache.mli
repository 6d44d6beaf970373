(** The cache of permitted page-groups (Figure 2).

    In PA-RISC 1.1 this is four PID registers; following the paper (and
    Wilkes & Sears) we generalize it to an n-entry fully associative cache
    with LRU replacement. Each entry names a page-group (AID) the current
    domain may access, plus the write-disable bit carried by PA-RISC PIDs.

    Group 0 ("public", AID = 0) is accessible to every domain without
    occupying an entry, as in the PA-RISC. *)

type t

val create :
  ?policy:Replacement.t -> ?seed:int -> ?probe:Probe.t -> entries:int ->
  unit -> t
(** [entries = 4] models the stock PA-RISC PID registers. [probe] receives
    occupancy/fill/purge gauge writes (default {!Probe.null}). *)

val capacity : t -> int
val length : t -> int

type check = Denied | Allowed of { write_disabled : bool }

val check : t -> aid:int -> check
(** Counted probe of the protection check's second stage. AID 0 is always
    [Allowed] with writes enabled and is not counted as a cache probe (it is
    a fixed comparison in hardware). *)

val check_bits : t -> aid:int -> int
(** Allocation-free {!check}: [-1] denied, [0] allowed, [1] allowed with
    writes disabled. The machine fast paths use this. *)

val load : t -> aid:int -> write_disabled:bool -> unit
(** Install a group (evicting LRU if full). Loading AID 0 is a no-op. *)

val set_write_disable : t -> aid:int -> bool -> bool
(** Flip the D bit of a resident entry; false when absent. *)

val drop : t -> aid:int -> bool
(** Remove one group (segment detach under the page-group model). *)

val flush : t -> int
(** Domain switch: purge all groups; returns entries dropped. *)

val resident : t -> aid:int -> bool
val iter : (int -> bool -> unit) -> t -> unit

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit

val raw_cache : t -> Packed_cache.t
(** The underlying cache, for the batch engine's compiled kernel.
    Bypasses the occupancy probe — kernel users run with [Probe.null]. *)

val hash_of : int -> int
(** The AID key hash, exported so the batch compiler can precompute set
    placement. *)
