(** Set-associative cache specialized to int-packed keys and int payloads.

    The PLB, TLB and page-group cache sit on every simulated memory access.
    This module keeps their geometry, replacement policy and hit/miss/
    eviction accounting on unboxed [int array] lanes, so the access fast
    path (find / insert / evict) performs zero heap allocations.

    Keys are two ints ([k1], [k2]) plus a caller-supplied hash: each
    wrapper supplies its own multiplicative hash, which decides set
    placement (and therefore every hit/miss/eviction decision). The set
    index masks the mixed hash to non-negative before [mod], since
    [abs min_int] is negative.

    Payloads are non-negative ints; {!absent} ([-1]) is the miss sentinel,
    which is what makes an allocation-free [find] possible ([Some v] would
    allocate).

    This is the only implementation. The boxed reference model it is
    checked against, a generic set-associative cache with [option]
    returns, lives under [test/] and is driven op by op in lockstep with
    this one by [test/test_packed_cache.ml]. *)

type t

val create :
  ?policy:Replacement.t ->
  ?seed:int ->
  sets:int ->
  ways:int ->
  unit ->
  t
(** Defaults: LRU, seed [0x5a505] (the seed only matters for [Random]).
    @raise Invalid_argument unless [sets >= 1] and [ways >= 1]. *)

val sets : t -> int
val ways : t -> int
val capacity : t -> int
val length : t -> int

val absent : int
(** [-1]: returned by {!find}/{!peek} on a miss. Stored values must be
    non-negative so the sentinel is unambiguous. *)

val find : t -> hash:int -> k1:int -> k2:int -> int
(** Counted probe: increments hits or misses, refreshes recency under
    LRU. Returns the payload, or {!absent}. Never allocates. *)

val peek : t -> hash:int -> k1:int -> k2:int -> int
(** Uncounted, recency-neutral {!find}. *)

val mem : t -> hash:int -> k1:int -> k2:int -> bool

val insert : t -> hash:int -> k1:int -> k2:int -> int -> unit
(** Insert or overwrite: overwriting a resident key is an LRU touch
    (FIFO keeps insertion order); a fresh key fills a free way or evicts
    the policy's victim (counted). The victim, if any, is readable via
    {!last_eviction} until the next [insert].
    @raise Invalid_argument on a negative payload or a negative [k1]. *)

val last_eviction : t -> (int * int * int) option
(** [(k1, k2, payload)] evicted by the most recent {!insert}, or [None]
    if it evicted nothing. For the differential tests; allocates. *)

val set : t -> hash:int -> k1:int -> k2:int -> int -> bool
(** Replace a resident payload in place — no statistics, no recency.
    False when absent.
    @raise Invalid_argument on a negative payload. *)

val set_masked : t -> hash:int -> k1:int -> k2:int -> mask:int -> bits:int -> bool
(** [set_masked t ~mask ~bits]: payload [v] becomes
    [(v land lnot mask) lor bits] in place — field surgery on packed
    payloads (TLB dirty/referenced marks, rights rewrites) without an
    allocating read-modify-write round trip. No statistics, no recency.
    False when absent. *)

val remove : t -> hash:int -> k1:int -> k2:int -> bool

val purge : t -> (int -> int -> int -> bool) -> int * int
(** Full sweep in set-major order; [(inspected, removed)]. The predicate
    receives [k1 k2 payload]. *)

val rewrite : t -> (int -> int -> int -> int) -> int
(** Full sweep rewriting payloads in place: [f k1 k2 v] returns the new
    payload (return [v] to leave the entry untouched). No statistics, no
    recency. Returns the number of entries changed.
    @raise Invalid_argument if [f] returns a negative payload. *)

val clear : t -> int
(** Drop everything; returns the number of entries dropped. *)

val iter : (int -> int -> int -> unit) -> t -> unit
(** [f k1 k2 payload] per resident entry, in set-major order. *)

val fold : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val reset_stats : t -> unit

(** {2 Raw packed-state access}

    The batch engine's decode loop (lib/engine) compiles set bases ahead
    of time and drives the packed lanes directly, skipping the per-access
    hash + [mod sets] division. The raw operations below are the {e only}
    implementation of the fast path — the public API calls them with
    [base = raw_base state ~hash] — so a kernel
    built on them counts hits/misses/evictions and draws victims exactly
    as the scalar calls would. *)

type packed_state = {
  p_policy : Replacement.t;
  mutable p_rand : int;
      (** splitmix state for Random victim draws; steps in lockstep with
          the reference model's, so both evict the same ways *)
  p_sets : int;
  p_ways : int;
  keys1 : int array;
      (** flattened [set * ways + way]; a free slot holds {!free_key} *)
  keys2 : int array;
  vals : int array;
  stamps : int array;
      (** recency for LRU, insertion order for FIFO *)
  mutable p_tick : int;
  mutable p_hits : int;
  mutable p_misses : int;
  mutable p_evictions : int;
  mutable p_length : int;
  mutable ev_k1 : int;
  mutable ev_k2 : int;
  mutable ev_v : int;
  mutable ev_some : bool;
}

val packed_state : t -> packed_state
(** The underlying lanes. *)

val free_key : int
(** The keys1 sentinel marking a free slot ([min_int]); storable keys are
    non-negative ({!insert} and {!raw_insert} reject negative [k1]), so a
    key comparison alone distinguishes live entries — scans need no
    separate validity lane. *)

val raw_base : packed_state -> hash:int -> int
(** Flattened index of the first way of [hash]'s set — precomputable when
    the key (hence hash) is known at compile time. *)

val raw_index : packed_state -> base:int -> k1:int -> k2:int -> int
(** The bare scan: flattened slot index of [(k1, k2)] in the set at
    [base], or -1 when absent. No statistics, no recency touch — the
    kernel's inlined decode arms compose their bookkeeping around this
    (and the lockstep properties pin them to {!raw_find}'s). *)

val raw_find : packed_state -> base:int -> k1:int -> k2:int -> int
(** {!find} given a precomputed set base. *)

val raw_peek : packed_state -> base:int -> k1:int -> k2:int -> int
(** {!peek} given a precomputed set base. *)

val raw_find_mark :
  packed_state -> base:int -> k1:int -> k2:int -> bits:int -> int
(** {!find} fused with [set_masked ~mask:bits ~bits] on the same key, in
    one scan: a hit returns the pre-update payload after ORing [bits] into
    it; a miss counts and returns {!absent} (set_masked would have been a
    no-op). The TLB access path (lookup + mark_used) compiles to this. *)

val raw_insert : packed_state -> base:int -> k1:int -> k2:int -> int -> unit
(** {!insert} given a precomputed set base. Does {e not} re-check the
    payload sign; callers validate (the engine does so at compile time).
    @raise Invalid_argument on a negative [k1]. *)

val raw_refill : packed_state -> base:int -> k1:int -> k2:int -> int -> unit
(** {!raw_insert} for a key already known to be absent from its set — a
    refill following a counted miss — skipping the presence re-scan.
    Placement, victim choice and eviction bookkeeping are shared with
    {!raw_insert} (which delegates its not-found case here).
    @raise Invalid_argument on a negative [k1]. *)

val raw_set_masked :
  packed_state -> base:int -> k1:int -> k2:int -> mask:int -> bits:int -> bool
(** {!set_masked} given a precomputed set base. *)
