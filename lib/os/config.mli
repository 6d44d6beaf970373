(** Machine configuration shared by all protection-system implementations.

    Defaults follow the paper's fair-comparison ground rules (§4): the PLB
    and the page-group TLB are on-chip structures with the same number of
    entries; the page-group cache replaces the PA-RISC's four PID registers
    with a small LRU cache. *)

open Sasos_addr
open Sasos_hw

type t = {
  geom : Geometry.t;
  cost : Cost_model.t;
  seed : int;
  policy : Replacement.t;
  tlb_sets : int;
  tlb_ways : int;  (** default 1×64: fully associative, 64 entries *)
  plb_sets : int;
  plb_ways : int;  (** default 1×64, matching the TLB (paper §4) *)
  plb_shifts : int list;
      (** protection page sizes the PLB supports (log2 bytes); default
          [geom.prot_shift] only *)
  pg_entries : int;  (** page-group cache size; 4 = stock PA-RISC *)
  pg_eager_reload : int;
      (** on a domain switch, eagerly reload up to this many of the new
          domain's page-groups (0 = fully lazy, §4.1.4) *)
  pg_lock_policy : [ `Shared | `Private ];
      (** how the page-group OS represents per-domain page rights
          (§4.1.2): [`Shared] puts a page in a group shared by every
          domain with the same expressible pattern; [`Private] always
          moves it into a group private to the acting domain, so shared
          read locks make the page alternate between groups *)
  cache_org : Data_cache.org;
  cache_bytes : int;
  cache_line : int;
  cache_ways : int;
  l2_bytes : int;
      (** unified second-level (physically indexed) cache; 0 disables it.
          §3.2.1 proposes pairing the PLB's off-critical-path TLB with the
          L2 controller *)
  l2_line : int;
  l2_ways : int;
  frames : int;  (** physical memory size in frames *)
  cpus : int;
      (** processors; above 1, kernel mutations of shared hardware state
          broadcast inter-processor shootdowns and sweeps run on every
          CPU's private structures (§4.1.3) *)
  pk_keys : int;
      (** protection-keys machine: register-file width in keys, including
          the reserved always-deny key 0; default 8, x86 MPK would be 16 *)
  pk_policy : [ `Recycle | `Trap ];
      (** what the Pk machine does when every key is bound to a live rights
          signature and a new one appears: [`Recycle] steals a victim key
          (shootdown-style purge of its TLB entries), [`Trap] leaves the
          page on the trap key so every access is kernel-mediated until a
          key frees up *)
}

val default : t

val v :
  ?geom:Geometry.t ->
  ?cost:Cost_model.t ->
  ?seed:int ->
  ?policy:Replacement.t ->
  ?tlb_sets:int ->
  ?tlb_ways:int ->
  ?plb_sets:int ->
  ?plb_ways:int ->
  ?plb_shifts:int list ->
  ?pg_entries:int ->
  ?pg_eager_reload:int ->
  ?pg_lock_policy:[ `Shared | `Private ] ->
  ?cache_org:Data_cache.org ->
  ?cache_bytes:int ->
  ?cache_line:int ->
  ?cache_ways:int ->
  ?l2_bytes:int ->
  ?l2_line:int ->
  ?l2_ways:int ->
  ?frames:int ->
  ?cpus:int ->
  ?pk_keys:int ->
  ?pk_policy:[ `Recycle | `Trap ] ->
  unit ->
  t
(** Build a configuration, defaulting every field from {!default}. When
    [plb_shifts] is omitted it follows [geom.prot_shift].
    @raise Invalid_argument if [frames] exceed the physical address space,
    or if [cache_line] (or [l2_line], when [l2_bytes > 0]) is larger than
    a page. *)
