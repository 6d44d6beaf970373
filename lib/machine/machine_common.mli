(** The machine skeleton (§3: the machines differ only in their
    protection check).

    Every machine holds the same base: the OS truth, a TLB, a level-1
    data cache, an optional physically indexed, physically tagged L2
    (§3.2.1's "TLB at the L2 controller" organization) and an eviction
    hook, plus its own protection structures in [prot]. Paging and the
    data path are written once here, as plain functions over that base:
    eviction and [unmap_page] release a page's frame through one path
    (its L1 lines, then its L2 lines), and page-group, pk and conv share
    one [data_path]. A machine includes this module and adds its
    protection check, its top-level [attempt] loop, its purges, its table
    cleanup and its introspection. *)

open Sasos_addr
open Sasos_hw
open Sasos_os

type 'p base = private {
  os : Os_core.t;
  tlb : Tlb.t;
  cache : Data_cache.t;
  l2 : Data_cache.t option;
  tagged : bool;
      (** TLB entries carry an address-space tag (conv-asid), so a page
          may be cached once per space *)
  evict_hook : Va.vpn -> unit;
      (** built at {!create}: releases a victim page's frame (see
          {!release_lines}) and drops its TLB entries *)
  prot : 'p;  (** the machine's own protection structures *)
}

val create : ?tagged:bool -> Config.t -> (Os_core.t -> 'p) -> 'p base
(** A fresh base from the configuration; [prot os] builds the machine's
    protection structures. [tagged] defaults to [false]. *)

(** {2 Accessors}

    The {!Sasos_os.System_intf.SYSTEM} accessors, shared by every
    machine. The per-access loops read the fields instead: the default
    (dev) build compiles with [-opaque], so a call into this module is
    an indirect call that no compiler inlines. *)

val os : 'p base -> Os_core.t
val metrics : 'p base -> Metrics.t
val cost : 'p base -> Cost_model.t
val geom : 'p base -> Geometry.t
val new_domain : 'p base -> Pd.t
val current_domain : 'p base -> Pd.t

val new_segment :
  'p base -> ?name:string -> ?align_shift:int -> pages:int -> unit ->
  Segment.t

val charge_external :
  'p base -> cycles:int -> page_ins:int -> page_outs:int -> unit
(** Bump the paging counters and charge the cycles.
    @raise Invalid_argument on a negative amount. *)

(** {2 Charges} *)

val charge_shootdown : Os_core.t -> unit
(** One inter-processor broadcast: when [Config.cpus > 1], count a
    shootdown and charge one IPI round per remote CPU. No-op on a
    uniprocessor. *)

val charge_sweep : 'p base -> int -> int -> unit
(** [charge_sweep b inspected removed]: count a purge sweep and charge it
    on every CPU, plus a shootdown when it inspected anything. *)

val count_access : 'p base -> Access.kind -> unit
(** The access prologue: count the access and its read or write. *)

val protection_fault : 'p base -> Access.outcome
(** Count a protection fault the kernel confirmed against the truth, and
    return [Protection_fault]. *)

(** {2 Paging} *)

val release_lines : 'p base -> Va.vpn -> unit
(** Flush a mapped page's lines from the L1, then from the L2, counting
    and charging each line; a page that is not mapped holds none. An
    untagged L1 is flushed over the page's virtual range in space 0, a
    tagged one by frame. Never allocates. *)

val ensure_mapped : 'p base -> Va.vpn -> int
(** The page's frame, paging it in (and evicting through the hook) when
    it is not resident. *)

val unmap : 'p base -> Va.vpn -> unit
(** The shared tail of [unmap_page]: release the page's lines, charge the
    table write, unmap and write back. Each machine adds its own TLB drop
    and its own charges. *)

val destroy_segment :
  'p base -> Segment.t -> detach:(Pd.t -> Segment.t -> unit) ->
  unmap_page:(Va.vpn -> unit) -> unit
(** Detach every attached domain, unmap the resident pages, drop the
    backing copies and free the segment. Machine tables that name the
    segment are the caller's to clean. *)

(** {2 The data path} *)

val cache_access :
  'p base -> space:int -> va:Va.t -> pa:int -> write:bool -> bool
(** Probe the L1 and, on a miss, fill from the L2 (when present and hit)
    or memory, counting and charging; true on an L1 hit. *)

val data_path : 'p base -> Access.kind -> Va.t -> int -> space:int -> unit
(** The data path once protection has approved an access through TLB
    entry [e] of [space]: mark the entry used, the page dirty on a
    write, and access the cache. *)
