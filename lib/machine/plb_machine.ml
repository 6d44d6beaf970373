open Sasos_addr
open Sasos_hw
open Sasos_os
include Machine_common

type prot = {
  plb : Plb.t;
  (* Okamoto execution-point extension (paper §5): data segments guarded by
     a code segment, and the current code context register *)
  guards : (int, int * Rights.t) Hashtbl.t; (* data seg -> (code seg, rights) *)
  mutable code_context : Segment.t option;
}

(* The TLB holds translations only, tagged by space 0: global, off the
   critical path. *)
type t = prot base

let name = "plb"
let model = System_intf.Domain_page

let create (config : Config.t) =
  Machine_common.create config (fun os ->
      {
        plb =
          Plb.create ~policy:config.Config.policy ~seed:config.Config.seed
            ~probe:os.Os_core.probe ~shifts:config.Config.plb_shifts
            ~sets:config.Config.plb_sets ~ways:config.Config.plb_ways ();
        guards = Hashtbl.create 16;
        code_context = None;
      })

(* A domain switch is one protected register write; neither the PLB nor the
   TLB is purged (§4.1.4). *)
let switch_domain t pd =
  let m = metrics t in
  m.Metrics.domain_switches <- m.Metrics.domain_switches + 1;
  Os_core.charge t.os
    ((cost t).Cost_model.domain_switch + (cost t).Cost_model.pd_id_write);
  t.os.Os_core.current <- pd

(* The CAM sweep of Table 1's detach: inspect every PLB entry and drop
   those of domain (or context tag) [pd] whose base lies in [lo, hi). *)
let purge_range t pd lo hi =
  let inspected, removed =
    Plb.purge_matching t.prot.plb (fun epd base _ ->
        Pd.equal epd pd && base >= lo && base < hi)
  in
  charge_sweep t inspected removed

(* --- Okamoto execution-point extension (§5 related work) ------------- *)
(* Okamoto et al. extend the domain-page model: a page can be marked
   accessible to any thread currently executing code from a designated
   code page, independent of its protection domain. PLB entries for such
   grants are tagged with a context identifier instead of a PD-ID; the
   processor holds the current code context in a second register and the
   PLB matches either tag. Protected objects can then be invoked without
   a domain switch. *)

let ctx_tag_base = 0x4000_0000

let ctx_pd (cseg : Segment.t) =
  Pd.of_int (ctx_tag_base + Segment.id_to_int cseg.Segment.id)

let guard_rights t va =
  match t.prot.code_context with
  | None -> Rights.none
  | Some cseg -> begin
      match Segment_table.find_by_va t.os.Os_core.segments va with
      | None -> Rights.none
      | Some dseg -> begin
          match
            Hashtbl.find_opt t.prot.guards (Segment.id_to_int dseg.Segment.id)
          with
          | Some (cid, r) when cid = Segment.id_to_int cseg.Segment.id -> r
          | Some _ | None -> Rights.none
        end
    end

(* Entering or leaving guarded code is one register write, like a PD-ID
   change — no kernel involvement. *)
let set_code_context t cseg =
  Os_core.charge t.os (cost t).Cost_model.pd_id_write;
  t.prot.code_context <- cseg

let guard_segment t ~data ~code rights =
  Os_core.kernel_entry t.os;
  Hashtbl.replace t.prot.guards
    (Segment.id_to_int data.Segment.id)
    (Segment.id_to_int code.Segment.id, rights);
  Os_core.charge t.os (cost t).Cost_model.table_op

let unguard_segment t ~data =
  Os_core.kernel_entry t.os;
  match Hashtbl.find_opt t.prot.guards (Segment.id_to_int data.Segment.id) with
  | None -> ()
  | Some (cid, _) ->
      Hashtbl.remove t.prot.guards (Segment.id_to_int data.Segment.id);
      purge_range t
        (Pd.of_int (ctx_tag_base + cid))
        data.Segment.base (Segment.limit data)

(* Destroying a domain sweeps its PLB entries — the same CAM sweep as a
   detach, over the whole structure. *)
let destroy_domain t pd =
  Os_core.kernel_entry t.os;
  Os_core.destroy_domain t.os pd;
  let inspected, removed = Plb.purge_matching t.prot.plb (fun epd _ _ -> Pd.equal epd pd) in
  charge_sweep t inspected removed

(* Attach manipulates no hardware: rights fault into the PLB page by page.
   The exception is a re-attach that reduces an existing attachment — a
   restriction, which must sweep the domain's resident entries for the
   segment so none over-allows. *)
let attach t pd seg rights =
  let m = metrics t in
  m.Metrics.attaches <- m.Metrics.attaches + 1;
  Os_core.kernel_entry t.os;
  let restricting = Os_core.narrows t.os pd seg rights in
  Os_core.set_attachment t.os pd seg rights;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  if restricting then purge_range t pd seg.Segment.base (Segment.limit seg)

(* Detach sweeps the PLB: inspect every entry, eliminate those for the
   (segment, domain) pair (Table 1). *)
let detach t pd seg =
  let m = metrics t in
  m.Metrics.detaches <- m.Metrics.detaches + 1;
  Os_core.kernel_entry t.os;
  Os_core.remove_attachment t.os pd seg;
  purge_range t pd seg.Segment.base (Segment.limit seg);
  Os_core.charge t.os (cost t).Cost_model.table_op

(* Pick the coarsest configured protection page size consistent with the OS
   truth at [va] for [pd] (§4.3): the region must lie inside one segment,
   be covered by the attachment with no per-page overrides, and be aligned. *)
(* Widest configured grain whose naturally-aligned block at [va] lies
   inside [sbase, slimit); [shifts] is ordered fine-to-coarse, so the
   last fit wins.  Top-level recursion rather than a fold with closures:
   this runs on every PLB refill, which must not allocate. *)
let rec widest_fit shifts va sbase slimit acc =
  match shifts with
  | [] -> acc
  | s :: rest ->
      let b = va land lnot ((1 lsl s) - 1) in
      let acc = if b >= sbase && b + (1 lsl s) <= slimit then s else acc in
      widest_fit rest va sbase slimit acc

let refill_shift t pd va =
  match Plb.shifts t.prot.plb with
  | [ s ] -> s
  | shifts -> begin
      let fine = List.hd shifts in
      match Segment_table.find_by_va t.os.Os_core.segments va with
      | None -> fine
      | Some seg ->
          if Os_core.has_overrides t.os pd seg then fine
          else widest_fit shifts va seg.Segment.base (Segment.limit seg) fine
    end

let plb_refill t pd va rights =
  let m = metrics t in
  let shift = refill_shift t pd va in
  Plb.install t.prot.plb ~pd ~va ~shift rights;
  m.Metrics.plb_refills <- m.Metrics.plb_refills + 1;
  Os_core.charge t.os (cost t).Cost_model.plb_refill

(* Change one domain's rights to one page: update the single PLB entry
   (Table 1: "simply requires updating a PLB entry"). *)
let grant t pd va rights =
  let m = metrics t in
  m.Metrics.grants <- m.Metrics.grants + 1;
  Os_core.kernel_entry t.os;
  Os_core.set_override t.os pd va rights;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  (* a resident coarse entry can no longer represent the segment; replace
     whatever is resident for this (domain, page) with a fine entry. This
     is Table 1's "simply requires updating a PLB entry": one entry write,
     not a miss-path refill. Other CPUs may cache the pair: broadcast. *)
  charge_shootdown t.os;
  ignore (Plb.invalidate t.prot.plb ~pd ~va);
  if not (Rights.equal rights Rights.none) then begin
    let fine = List.hd (Plb.shifts t.prot.plb) in
    Plb.install t.prot.plb ~pd ~va ~shift:fine rights;
    Os_core.charge t.os (cost t).Cost_model.pd_id_write
  end

(* Change one domain's rights across a whole segment: sweep the PLB,
   rewriting this domain's entries for the segment in place (Table 1,
   checkpoint "Restrict Access" / GC "Flip Spaces"). *)
let protect_segment t pd seg rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  ignore (Os_core.protect_segment t.os pd seg rights);
  Os_core.charge t.os (cost t).Cost_model.table_op;
  let lo = seg.Segment.base and hi = Segment.limit seg in
  let inspected, _updated =
    Plb.update_matching t.prot.plb (fun epd base r ->
        if Pd.equal epd pd && base >= lo && base < hi then Some rights
        else Some r)
  in
  charge_sweep t inspected 0

(* Change the page's rights for every attached domain: requires a full PLB
   sweep under the domain-page model (Table 1, checkpoint / GC rows). *)
let protect_all t va rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  Os_core.protect_all t.os va rights;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  let g = geom t in
  let unit = Os_core.prot_unit t.os va in
  let inspected, updated =
    Plb.update_matching t.prot.plb (fun epd base r ->
        (* rewrite any entry whose protection page is the unit from that
           domain's truth — a domain that held no rights was not part of
           the change and must not receive the new value; coarse entries
           covering the unit are demoted by invalidation below *)
        if base lsr g.Geometry.prot_shift = unit then
          Some (Os_core.rights t.os epd va)
        else Some r)
  in
  charge_sweep t inspected 0;
  ignore updated;
  (* with several grains, coarse entries covering the page are stale (the
     update above rewrote only matching bases): drop them for all domains *)
  if List.length (Plb.shifts t.prot.plb) > 1 then
    List.iter
      (fun pd' -> ignore (Plb.invalidate t.prot.plb ~pd:pd' ~va))
      (Os_core.domain_list t.os)

(* Unmap: flush data-cache lines and drop the TLB entry. The PLB needs no
   maintenance — stale protection entries are harmless because the missing
   translation stops any access (§4.1.3). *)
let unmap_page t vpn =
  Os_core.kernel_entry t.os;
  charge_shootdown t.os;
  ignore (Tlb.invalidate t.tlb ~space:0 ~vpn);
  unmap t vpn

let destroy_segment t seg =
  Machine_common.destroy_segment t seg ~detach:(detach t)
    ~unmap_page:(unmap_page t)

(* A TLB miss: the handler pages the page in and installs its
   translation. *)
let tlb_refill t vpn ~dirty =
  let m = t.os.Os_core.metrics in
  m.Metrics.tlb_misses <- m.Metrics.tlb_misses + 1;
  Os_core.kernel_entry t.os;
  let pfn = ensure_mapped t vpn in
  Tlb.install t.tlb ~space:0 ~vpn
    (Tlb.pack ~pfn ~rights:Rights.rwx ~aid:0 ~dirty ~referenced:true);
  m.Metrics.tlb_refills <- m.Metrics.tlb_refills + 1;
  Os_core.charge t.os t.os.Os_core.cost.Cost_model.tlb_refill;
  pfn

(* The data path once protection has approved the access: probe the VIVT
   cache; on a miss consult the (off-critical-path) TLB and fill. *)
let data_path t kind va =
  let g = t.os.Os_core.geom in
  let vpn = Va.vpn_of_va g va in
  let write = kind = Access.Write in
  let pa =
    (* zero-allocation translation probe: -1 = not mapped *)
    let pa = Os_core.pa_int t.os va in
    if pa >= 0 then pa
    else begin
      (* Not mapped: the cache cannot hold the line, so this access will
         miss and the TLB miss handler pages it in. *)
      ignore (Tlb.lookup t.tlb ~space:0 ~vpn);
      (tlb_refill t vpn ~dirty:false lsl g.Geometry.page_shift)
      lor Va.offset g va
    end
  in
  if not (cache_access t ~space:0 ~va ~pa ~write) then begin
    (* translation was needed to fill the line *)
    let e = Tlb.lookup t.tlb ~space:0 ~vpn in
    if e <> Tlb.absent then begin
      let m = t.os.Os_core.metrics in
      m.Metrics.tlb_hits <- m.Metrics.tlb_hits + 1;
      Tlb.mark_used t.tlb ~space:0 ~vpn ~write
    end
    else ignore (tlb_refill t vpn ~dirty:write)
  end;
  if write then Os_core.mark_dirty t.os ~vpn

let access t kind va =
  let m = t.os.Os_core.metrics in
  let c = t.os.Os_core.cost in
  count_access t kind;
  let pd = t.os.Os_core.current in
  let needed = Access.rights_needed kind in
  (* PLB probe, in parallel with the cache lookup (Figure 1); with a code
     context loaded, the context-tagged bank is probed as well (Okamoto) *)
  let primary = Plb.lookup_bits t.prot.plb ~pd ~va in
  if primary >= 0 then m.Metrics.plb_hits <- m.Metrics.plb_hits + 1
  else m.Metrics.plb_misses <- m.Metrics.plb_misses + 1;
  let primary_allows =
    primary >= 0 && Rights.subset needed (Rights.of_int primary)
  in
  let context_allows =
    (not primary_allows)
    && (match t.prot.code_context with
       | None -> false
       | Some cseg ->
           let r = Plb.lookup_bits t.prot.plb ~pd:(ctx_pd cseg) ~va in
           if r >= 0 then begin
             m.Metrics.plb_hits <- m.Metrics.plb_hits + 1;
             Rights.subset needed (Rights.of_int r)
           end
           else begin
             m.Metrics.plb_misses <- m.Metrics.plb_misses + 1;
             false
           end)
  in
  if primary_allows || context_allows then begin
    data_path t kind va;
    Access.Ok
  end
  else begin
    (* exception or miss: the kernel decides against the truth *)
    Os_core.kernel_entry t.os;
    Os_core.charge t.os c.Cost_model.table_op;
    let domain_truth = Os_core.rights t.os pd va in
    if Rights.subset needed domain_truth then begin
      (* refresh/refill the domain-tagged entry and restart *)
      ignore (Plb.invalidate t.prot.plb ~pd ~va);
      plb_refill t pd va domain_truth;
      data_path t kind va;
      Access.Ok
    end
    else begin
      let gr = guard_rights t va in
      if Rights.subset needed gr then begin
        (* granted through the execution point: install under the context
           tag so subsequent references hit without the kernel *)
        (match t.prot.code_context with
        | Some cseg ->
            let fine = List.hd (Plb.shifts t.prot.plb) in
            Plb.install t.prot.plb ~pd:(ctx_pd cseg) ~va ~shift:fine gr;
            m.Metrics.plb_refills <- m.Metrics.plb_refills + 1;
            Os_core.charge t.os c.Cost_model.plb_refill
        | None -> ());
        data_path t kind va;
        Access.Ok
      end
      else protection_fault t
    end
  end

let resident_prot_entries_for t va = Plb.entries_for_va t.prot.plb va

let hw_over_allows t probes =
  List.exists
    (fun (pd, va) ->
      let truth = Os_core.rights t.os pd va in
      let over = ref false in
      Plb.iter
        (fun epd base shift r ->
          if Pd.equal epd pd && base = va land lnot ((1 lsl shift) - 1) then
            if not (Rights.subset r truth) then over := true)
        t.prot.plb;
      !over)
    probes
