(** Shared operating-system state: the ground truth that all three machine
    models consult from their fault handlers.

    Holds the global segment table, the single set of virtual-to-physical
    translations (inverted page table), physical memory, backing store, and
    the protection database: per-(domain, segment) attachment rights plus
    per-(domain, protection-page) overrides. The machines differ in the
    hardware structures they keep coherent with this truth, never in the
    truth itself — which is what makes the cross-machine equivalence
    invariant testable. *)

open Sasos_addr
open Sasos_hw
open Sasos_mem

type store
(** The protection database — per-(domain, segment) attachment rights,
    per-(domain, protection-unit) overrides, and override counts — on
    flat {!Sasos_util.Flat_tab} int lanes whose ground-truth probes never
    allocate, plus the candidate/count indexes that keep
    {!domains_with_rights} and {!page_has_override} off O(#domains) scans
    at million-domain geometries. The tables start at
    {!Sasos_util.Flat_tab}'s default capacity and grow on demand. *)

type t = {
  config : Config.t;
  geom : Geometry.t;
  cost : Cost_model.t;
  mutable metrics : Metrics.t;
      (** mutable so the smp layer can point every replica core's OS at
          one shared record (see {!share_metrics}); machines always read
          the field at charge time, never capture it at create *)
  segments : Segment_table.t;
  frames : Frame_allocator.t;
  ipt : Inverted_page_table.t;
  disk : Backing_store.t;
  store : store;  (** the protection truth (see {!store}) *)
  resident_fifo : Sasos_util.Int_queue.t;
      (** eviction order when memory fills; residency itself is IPT
          membership *)
  mutable domains : Pd.t list;  (** newest first *)
  mutable next_pd : int;
  mutable current : Pd.t;
  rng : Sasos_util.Prng.t;
  probe : Probe.t;
      (** gauge sink shared by this machine's hardware structures; read by
          the observability sampler *)
}

val create : Config.t -> t

val share_metrics : t -> Sasos_hw.Metrics.t -> unit
(** Redirect this instance's counters onto a record owned elsewhere. The
    smp layer points every replica core's OS at core 0's record so the
    per-core purge work of a shootdown accumulates into one aggregate. *)

(** {2 Domains} *)

val new_domain : t -> Pd.t
val domain_list : t -> Pd.t list
(** All created domains, oldest first. *)

val destroy_domain : t -> Pd.t -> unit
(** Remove the domain and all of its attachments and overrides from the
    truth. Hardware coherence is the machine's job.
    @raise Invalid_argument if the domain is currently running. *)

(** {2 Protection truth} *)

val prot_unit : t -> Va.t -> int
(** The protection-grain unit index containing [va]. *)

val rights : t -> Pd.t -> Va.t -> Rights.t
(** Ground-truth rights: the override for the protection unit if present,
    else the attachment rights of the segment containing [va], else none. *)

val set_attachment : t -> Pd.t -> Segment.t -> Rights.t -> unit
val remove_attachment : t -> Pd.t -> Segment.t -> unit
(** Also clears the domain's per-page overrides within the segment. *)

val attachment : t -> Pd.t -> Segment.t -> Rights.t option

val set_override : t -> Pd.t -> Va.t -> Rights.t -> unit
(** Per-domain, per-protection-unit rights for the unit containing [va]. *)

val clear_override : t -> Pd.t -> Va.t -> unit

val page_has_override : t -> Va.t -> bool
(** True when any domain has a live override on the protection unit
    containing [va]. *)

val domains_with_rights : t -> Va.t -> (Pd.t * Rights.t) list
(** Every domain whose ground-truth rights on [va] are non-empty (consults
    only created domains). Oldest first. *)

val has_overrides : t -> Pd.t -> Segment.t -> bool
(** Whether the domain has any per-page overrides inside the segment —
    when false, one coarse PLB entry can cover the whole segment (§4.3). *)

val override_units_in_segment : t -> Pd.t -> Segment.t -> int list
(** Protection units inside the segment for which the domain has an
    override. *)

(** {2 Memory} *)

val charge : t -> int -> unit
(** Add cycles to the metrics. *)

val kernel_entry : t -> unit
(** Count a trap into the kernel and charge its cost. *)

val ensure_mapped :
  t -> vpn:Va.vpn -> before_evict:(Va.vpn -> unit) -> int
(** Return the page's frame, paging it in (zero-fill or from disk) if
    needed. When physical memory is full, evicts the oldest resident page
    first, calling [before_evict victim] so the machine can flush its
    hardware structures for the victim. Charges page-in / page-out costs.
    @raise Failure if no frame can be found. *)

val unmap : t -> vpn:Va.vpn -> write_back:bool -> unit
(** Remove the translation (if mapped), optionally writing a dirty page to
    the backing store; frees the frame. Hardware coherence is the caller's
    job. *)

val is_resident : t -> vpn:Va.vpn -> bool
val pfn_of : t -> vpn:Va.vpn -> int option

val pfn_int : t -> vpn:Va.vpn -> int
(** Frame number of a mapped page, or [-1]. Never allocates. *)

val pa_of : t -> Va.t -> int option
(** Physical byte address of a mapped virtual address. *)

val pa_int : t -> Va.t -> int
(** Physical byte address, or [-1] if unmapped. Never allocates — the
    hot-loop form of {!pa_of}. *)

val mark_dirty : t -> vpn:Va.vpn -> unit
