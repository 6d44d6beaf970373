(** The protection-system interface every machine model implements.

    Workloads are written once against this signature; the PLB machine, the
    page-group machine and the conventional baseline implement each
    operation with the model-specific hardware manipulations of Table 1.
    The observable semantics (which accesses are permitted) are identical
    across machines — only the costs differ. *)

open Sasos_addr
open Sasos_hw

type model = Domain_page | Page_group | Protection_keys | Conventional

let model_to_string = function
  | Domain_page -> "domain-page (PLB)"
  | Page_group -> "page-group (PA-RISC)"
  | Protection_keys -> "protection-keys (MPK)"
  | Conventional -> "conventional (MAS)"

module type SYSTEM = sig
  type t

  val name : string
  val model : model
  val create : Config.t -> t
  val os : t -> Os_core.t
  (** The shared OS truth (for invariant checks and examples). *)

  val metrics : t -> Metrics.t

  (** {2 Domains} *)

  val new_domain : t -> Pd.t
  val current_domain : t -> Pd.t

  val switch_domain : t -> Pd.t -> unit
  (** Protection-domain (context) switch: §4.1.4. A no-op if already
      current still counts as a switch request. *)

  val destroy_domain : t -> Pd.t -> unit
  (** Retire a domain: its attachments and overrides disappear from the
      truth and its hardware protection state is purged (a PLB sweep, a
      page-group membership scrub, a TLB space purge).
      @raise Invalid_argument if the domain is currently running. *)

  (** {2 Segments} *)

  val new_segment : t -> ?name:string -> ?align_shift:int -> pages:int ->
    unit -> Segment.t

  val destroy_segment : t -> Segment.t -> unit
  (** Detach from all domains, unmap all pages, drop backing copies. *)

  val attach : t -> Pd.t -> Segment.t -> Rights.t -> unit
  (** Grant [rights] on the whole segment (Table 1 row "Attach Segment"). *)

  val detach : t -> Pd.t -> Segment.t -> unit
  (** Revoke the domain's access (Table 1 row "Detach Segment"). *)

  (** {2 Page-level protection} *)

  val grant : t -> Pd.t -> Va.t -> Rights.t -> unit
  (** Set one domain's rights on the protection unit containing [va],
      independent of other domains — the domain-page operation that
      the page-group model must emulate with regrouping. *)

  val protect_all : t -> Va.t -> Rights.t -> unit
  (** Set every attached domain's rights on the page — cheap under
      page-groups (one Rights field), a sweep under the PLB. *)

  val protect_segment : t -> Pd.t -> Segment.t -> Rights.t -> unit
  (** Change one domain's rights on a whole segment (checkpoint "restrict
      access", GC flip): replaces the attachment rights and clears the
      domain's per-page overrides inside the segment. A PLB sweep under the
      domain-page model; often a single write-disable bit under
      page-groups. *)

  (** {2 Paging} *)

  val unmap_page : t -> Va.vpn -> unit
  (** Remove the translation: flush cached lines, invalidate TLB entries,
      write back if dirty (§4.1.3). Protection truth is unchanged. *)

  (** {2 Memory references} *)

  val access : t -> Access.kind -> Va.t -> Access.outcome
  (** One load/store/fetch by the current domain. Refills structures and
      pages in on demand; returns [Protection_fault] when the ground truth
      denies the access (after the kernel has confirmed). *)

  (** {2 External costs} *)

  val charge_external : t -> cycles:int -> page_ins:int -> page_outs:int ->
    unit
  (** Account workload-level costs the machine does not model — a DSM
      network fetch, compression work, a checkpoint disk write — against
      this machine's metrics. Going through the interface (instead of
      mutating {!metrics} directly) lets a trace recorder capture the
      charge, so a replay of the trace re-applies it to the replayed
      machine and reports the same cycles as the recorded run.
      @raise Invalid_argument on a negative amount. *)

  (** {2 Introspection (experiments, tests)} *)

  val resident_prot_entries_for : t -> Va.t -> int
  (** Hardware protection entries currently devoted to the page containing
      [va]: PLB entries across domains / page-group TLB entry presence /
      conventional per-ASID TLB entries. Measures §3.1 duplication. *)

  val hw_over_allows : t -> (Pd.t * Va.t) list -> bool
  (** True if for any probe pair the hardware fast path would allow an
      access the OS truth denies — must always be false (tested). *)
end

type packed = Packed : (module SYSTEM with type t = 'a) * 'a -> packed
(** A machine instance bundled with its implementation, so workloads and
    experiments can be polymorphic over machines at runtime. *)

let packed_name (Packed ((module S), _)) = S.name
let packed_metrics (Packed ((module S), t)) = S.metrics t
let packed_os (Packed ((module S), t)) = S.os t
