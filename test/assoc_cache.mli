(** Generic set-associative hardware cache model.

    The reference model of the simulator's protection lookup structures.
    The TLB, PLB and page-group cache run on [Packed_cache]'s int lanes;
    [Ref_packed_cache] adapts this functor to the same API so the lockstep
    tests can drive the two op by op. It models a cache of [sets × ways]
    slots with a replacement policy, and counts hits, misses, insertions,
    evictions and purge sweeps.

    A fully associative structure is [sets = 1]. *)

open Sasos.Hw

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module type S = sig
  type key
  type 'v t

  val create :
    ?policy:Replacement.t -> ?seed:int -> sets:int -> ways:int -> unit -> 'v t
  (** @raise Invalid_argument unless [sets >= 1] and [ways >= 1]. The
      default policy is LRU; [seed] only matters for [Random]. *)

  val sets : 'v t -> int
  val ways : 'v t -> int
  val capacity : 'v t -> int
  val length : 'v t -> int

  val find : 'v t -> key -> 'v option
  (** Probe the cache: counts a hit or a miss, and touches the entry for
      LRU. *)

  val peek : 'v t -> key -> 'v option
  (** Probe without disturbing statistics or recency — for invariant checks
      and tests. *)

  val mem : 'v t -> key -> bool
  (** [peek] as a predicate. *)

  val insert : 'v t -> key -> 'v -> (key * 'v) option
  (** Fill an entry (replacing the victim chosen by the policy when the set
      is full); returns the evicted pair, if any. Inserting an existing key
      overwrites its value in place and refreshes its recency under LRU
      (under FIFO the original insertion order is kept). *)

  val update : 'v t -> key -> ('v -> 'v) -> bool
  (** Modify the value of a resident entry in place (no recency change);
      false when absent. *)

  val remove : 'v t -> key -> bool
  (** Invalidate one entry; false when absent. *)

  val purge : 'v t -> (key -> 'v -> bool) -> int * int
  (** [purge t p] invalidates every entry satisfying [p]. Returns
      [(inspected, removed)]: a purge is a full sweep of the structure, the
      cost the paper charges for PLB segment detach. *)

  val clear : 'v t -> int
  (** Invalidate everything; returns the number of entries dropped (the
      "full purge" of a flush-on-switch TLB). *)

  val iter : (key -> 'v -> unit) -> 'v t -> unit
  val fold : (key -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a

  val hits : 'v t -> int
  val misses : 'v t -> int
  val evictions : 'v t -> int
  val reset_stats : 'v t -> unit
end

module Make (K : KEY) : S with type key = K.t
