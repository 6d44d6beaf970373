open Sasos_addr

(** The Protection Lookaside Buffer (Figure 1).

    The PLB caches protection mappings on a per-domain, per-page basis: each
    entry is [(PD-ID, protection page number) → rights], with no translation
    information. When several domains share a page and have both touched it
    recently, the PLB holds one entry per domain — the duplication the paper
    trades for cheap protection changes.

    §4.3 decoupling: the PLB can be created with several protection page
    sizes (power-of-two [shift]s). A lookup probes each configured size, so
    one coarse entry can cover a whole segment while fine entries provide
    sub-page lock granularity. *)

type t

val create :
  ?policy:Replacement.t ->
  ?seed:int ->
  ?probe:Probe.t ->
  ?shifts:int list ->
  sets:int ->
  ways:int ->
  unit ->
  t
(** [shifts] lists the supported protection page sizes as log2 byte sizes;
    default [[12]] (4 KB only). [probe] receives occupancy/fill/purge
    gauge writes (default {!Probe.null}).
    @raise Invalid_argument if empty. *)

val shifts : t -> int list
val capacity : t -> int
val length : t -> int

val lookup : t -> pd:Pd.t -> va:Va.t -> Rights.t option
(** Counted probe: tries every configured grain (hardware probes them in
    parallel; one hit/miss is counted per access). The finest matching grain
    wins, so a sub-page deny overrides a segment-wide grant. *)

val lookup_bits : t -> pd:Pd.t -> va:Va.t -> int
(** Allocation-free {!lookup}: returns [Rights.to_int rights], or
    {!Packed_cache.absent} on a miss. The machine fast paths use this. *)

val install : t -> pd:Pd.t -> va:Va.t -> shift:int -> Rights.t -> unit
(** Fill one entry at the given grain (must be a configured shift).
    @raise Invalid_argument on an unconfigured shift. *)

val update_rights : t -> pd:Pd.t -> va:Va.t -> Rights.t -> bool
(** In-place rights change of a resident entry — the paper's "simply
    requires updating a PLB entry". Updates the finest-grain resident entry;
    false when the pair is not resident at any grain. *)

val invalidate : t -> pd:Pd.t -> va:Va.t -> bool
(** Drop resident entries for this (domain, address) at every grain. *)

val purge_matching : t -> (Pd.t -> Va.t -> Rights.t -> bool) -> int * int
(** Full sweep (segment detach): the predicate receives the domain, the
    base address of the entry's protection page and its rights. Returns
    [(inspected, removed)]. *)

val update_matching :
  t -> (Pd.t -> Va.t -> Rights.t -> Rights.t option) -> int * int
(** Full sweep that rewrites rights in place — Table 1's "inspect each entry
    in the PLB, marking those ..." operations (GC flip, checkpoint
    restrict). [f pd base_va rights] returns the new rights, or [None] to
    leave the entry untouched. Returns [(inspected, updated)]. *)

val flush : t -> int

val entries_for_va : t -> Va.t -> int
(** Number of domain-copies resident for the page containing [va]. *)

val iter : (Pd.t -> Va.t -> int -> Rights.t -> unit) -> t -> unit
(** [f pd base_va shift rights] per entry. *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit

val raw_cache : t -> Packed_cache.t
(** The underlying cache, for the batch engine's compiled kernel (which
    precomputes this module's hashes and set bases at compile time).
    Bypasses the occupancy probe — kernel users run with [Probe.null]. *)

val hash_of : pd:int -> shift:int -> pn:int -> int
(** The PLB's key hash (a pure function of the key), exported so the batch
    compiler can precompute set placement. *)

val pack_k2 : pd:int -> shift:int -> int
(** The PLB's second key lane: [(pd lsl 6) lor shift]. *)
