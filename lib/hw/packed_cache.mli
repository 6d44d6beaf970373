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

    {b Finding a key.} The paper's PLB and TLB are searched in parallel
    by hardware; here every keyed operation ({!find}, {!peek}, {!mem},
    {!set}, {!set_masked}, {!remove}, {!insert}) first looks the key up in
    its set in one of two ways, chosen at {!create} from the set width:

    - Sets of at most {!walk_max_ways} ways are {e walked}: one pass over
      the set's ways, which costs time linear in the ways touched and no
      memory beyond the lanes.
    - Wider sets {e probe a slot index}: an open-addressing table from
      (set, k1, k2) to slot, with linear probing and backward-shift
      deletion, sized to the next power of two at least twice the
      capacity, beside each slot's home position (199 words for a
      64-entry cache). A lookup costs O(1) expected probes whatever the
      width. {!insert}, {!remove}, {!purge} and {!clear} keep the table
      up to date, so a fill or an eviction costs a few probes on top of
      the lookup, and an evicting insert still walks the set for its
      victim.

    Measured on a 2-vCPU Xeon VM (EXPERIMENTS.md), a lookup that walks
    8 ways costs about 30 ns on a hit and 16 ns on a miss, and one that
    walks 64 ways 55 and 92 ns; a probe costs about 15 and 28 ns at any
    width. Keeping the index costs an evicting insert about 40 ns more
    than the walk at 8 to 32 ways; at 64 the cheaper lookup repays it.

    The index is keyed by the set as well as the key, so a probe returns
    the slot the walk would for any caller hash. Either way, {!insert}
    fills the lowest free way of the set or evicts the policy's victim, so
    placement, victims, statistics and iteration order do not depend on
    which lookup ran. At the default geometry (1×64 TLB and PLB, 16-entry
    page-group cache) every structure probes; 4-way sets walk.

    This is the only implementation. The boxed reference model it is
    checked against, a generic set-associative cache with [option]
    returns, lives under [test/] and is driven op by op in lockstep with
    this one by [test/test_packed_cache.ml]. *)

type t

val walk_max_ways : int
(** Sets with at most this many ways are walked; wider ones probe the
    slot index. A constant, fixed by a sweep over 4–64 ways (see
    EXPERIMENTS.md, "Wide sets probe an index"). *)

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

val well_formed : t -> bool
(** The slot index agrees with the lanes: each live slot is entered once,
    from the home its keys hash to, with no empty position between that
    home and the entry; nothing else is entered. True for a cache that
    walks. For the tests; allocates. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val reset_stats : t -> unit
