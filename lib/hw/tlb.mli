open Sasos_addr

(** Translation lookaside buffer.

    One structure serves all three machines, differing in what they store in
    each entry and how they tag it:

    - the PLB machine's off-critical-path TLB holds only translation plus
      dirty/referenced bits, tagged by VPN alone ([space = 0]);
    - the page-group machine's on-chip TLB additionally holds the AID and
      the Rights field (Figure 2), tagged by VPN alone;
    - the conventional MAS machine tags entries with an address space
      identifier ([space = ASID]) and holds per-space rights, or uses
      [space = 0] with a full flush on every context switch.

    Entries are bit-packed ints — referenced (bit 0), dirty (bit 1),
    rights (3 bits), AID (26 bits), PFN (31 bits) — so the lookup fast
    path is allocation-free. Figure 1 of the paper budgets 16 bits of
    PD-ID and 3 bits of rights next to a 52-bit VPN; the simulator widens
    the AID lane to 26 bits to carry Okamoto-style context tags. *)

type t

val absent : int
(** [-1]: the miss sentinel of {!lookup}/{!peek}. Packed entries are
    always non-negative. *)

val pack :
  pfn:int -> rights:Rights.t -> aid:int -> dirty:bool -> referenced:bool ->
  int
(** Build an entry. @raise Invalid_argument if [pfn] exceeds 31 bits or
    [aid] exceeds 26 bits. *)

val pfn_of : int -> int
val rights_of : int -> Rights.t
val aid_of : int -> int
val dirty_of : int -> bool
val referenced_of : int -> bool

val with_rights : int -> Rights.t -> int
(** Entry with its rights field replaced. *)

val create :
  ?policy:Replacement.t ->
  ?seed:int ->
  ?probe:Probe.t ->
  sets:int ->
  ways:int ->
  unit ->
  t
(** [probe] receives occupancy/fill/purge gauge writes (default
    {!Probe.null}). *)

val capacity : t -> int
val length : t -> int

val lookup : t -> space:int -> vpn:Va.vpn -> int
(** Counted probe (hit/miss statistics, LRU touch). Returns the packed
    entry or {!absent}; never allocates. *)

val peek : t -> space:int -> vpn:Va.vpn -> int
(** Uncounted, recency-neutral {!lookup}. *)

val install : t -> space:int -> vpn:Va.vpn -> int -> unit
(** Fill after a miss (may evict) with a {!pack}ed entry. *)

val mark_used : t -> space:int -> vpn:Va.vpn -> write:bool -> unit
(** OR the referenced bit (and the dirty bit when [write]) into a resident
    entry — the access-path bookkeeping. No-op when absent; no statistics,
    no recency, no allocation. *)

val set_rights : t -> space:int -> vpn:Va.vpn -> Rights.t -> bool
(** Replace the rights field of a resident entry in place; false when
    absent. *)

val set_protection : t -> space:int -> vpn:Va.vpn -> aid:int -> rights:Rights.t -> bool
(** Replace AID and rights of a resident entry in place (the Pg machine's
    entry refresh); false when absent. *)

val rewrite : t -> (int -> Va.vpn -> int -> int) -> int
(** Full sweep rewriting entries in place: [f space vpn entry] returns the
    new entry ([entry] to leave it untouched). Returns the number changed. *)

val invalidate : t -> space:int -> vpn:Va.vpn -> bool

val invalidate_vpn_all_spaces : t -> Va.vpn -> int * int
(** Shootdown of every entry for a page regardless of space — needed on the
    MAS machine where a shared page is replicated per ASID. Returns
    [(inspected, removed)]. *)

val drop_vpn : t -> Va.vpn -> int
(** {!invalidate_vpn_all_spaces} without the inspected count: returns the
    entries removed. Never allocates — the eviction form. *)

val purge_space : t -> int -> int * int
(** Remove all entries of one address space. Returns [(inspected, removed)]. *)

val flush : t -> int
(** Full purge; returns entries dropped. *)

val entries_for_vpn : t -> Va.vpn -> int
(** How many (space-)copies of this page the TLB currently holds — measures
    the duplication of §3.1. *)

val iter : (int -> Va.vpn -> int -> unit) -> t -> unit
(** [f space vpn entry] per resident entry. *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
