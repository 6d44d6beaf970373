open Sasos_addr
open Sasos_hw
open Sasos_os

type variant = V_asid | V_flush

type state = {
  os : Os_core.t;
  tlb : Tlb.t;
  cache : Data_cache.t;
  l2 : Data_cache.t option;
  variant : variant;
  (* built once, reused on every page fault (see Plb_machine) *)
  mutable evict_hook : int -> unit;
}

let make_create variant (config : Config.t) =
  let os = Os_core.create config in
  let probe = os.Os_core.probe in
  {
    os;
    tlb =
      Tlb.create ~policy:config.Config.policy ~seed:config.Config.seed ~probe
        ~sets:config.Config.tlb_sets ~ways:config.Config.tlb_ways ();
    cache =
      Data_cache.create ~policy:config.Config.policy ~seed:config.Config.seed
        ~probe ~org:config.Config.cache_org
        ~size_bytes:config.Config.cache_bytes
        ~line_bytes:config.Config.cache_line ~ways:config.Config.cache_ways ();
    l2 = Machine_common.l2_of_config ~probe config;
    variant;
    evict_hook = ignore;
  }

let metrics t = t.os.Os_core.metrics
let cost t = t.os.Os_core.cost
let geom t = t.os.Os_core.geom
let current_domain t = t.os.Os_core.current

(* The TLB space tag: the domain's ASID, or 0 when the TLB is untagged and
   flushed on every switch. *)
let space_of t pd =
  match t.variant with V_asid -> Pd.to_int pd | V_flush -> 0

(* The cache homonym tag mirrors the TLB discipline for VIVT caches. *)
let cache_space_of t pd =
  match t.variant with V_asid -> Pd.to_int pd | V_flush -> 0

let charge_sweep t inspected removed =
  let m = metrics t in
  m.Metrics.entries_inspected <- m.Metrics.entries_inspected + inspected;
  m.Metrics.entries_purged <- m.Metrics.entries_purged + removed;
  (* every CPU sweeps its private copy of the structure *)
  Os_core.charge t.os
    ((cost t).Cost_model.purge_per_entry * inspected
    * t.os.Os_core.config.Config.cpus);
  if inspected > 0 then Machine_common.charge_shootdown t.os

let switch_domain t pd =
  let m = metrics t in
  let c = cost t in
  m.Metrics.domain_switches <- m.Metrics.domain_switches + 1;
  Os_core.charge t.os (c.Cost_model.domain_switch + c.Cost_model.pd_id_write);
  (match t.variant with
  | V_asid -> ()
  | V_flush ->
      (* no ASIDs: purge translations, and flush the VIVT cache to kill
         homonyms (the i860 regime, §2.2) *)
      let dropped = Tlb.flush t.tlb in
      charge_sweep t (Tlb.capacity t.tlb) dropped;
      let flushed, _wb = Data_cache.flush_all t.cache in
      m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + flushed;
      Os_core.charge t.os (c.Cost_model.cache_line_flush * flushed));
  t.os.Os_core.current <- pd

let new_segment t ?name ?align_shift ~pages () =
  Segment_table.allocate t.os.Os_core.segments ?name ?align_shift ~pages ()

(* Destroying a domain purges its address space's TLB entries. *)
let destroy_domain t pd =
  Os_core.kernel_entry t.os;
  Os_core.destroy_domain t.os pd;
  match t.variant with
  | V_asid ->
      let inspected, removed = Tlb.purge_space t.tlb (Pd.to_int pd) in
      charge_sweep t inspected removed
  | V_flush -> () (* its entries died at the last switch *)

let attach t pd seg rights =
  let m = metrics t in
  m.Metrics.attaches <- m.Metrics.attaches + 1;
  Os_core.kernel_entry t.os;
  let restricting =
    match Os_core.attachment t.os pd seg with
    | Some old -> not (Rights.subset old rights)
    | None -> false
  in
  Os_core.set_attachment t.os pd seg rights;
  (* duplicated per-space page-table state (§3.1): one table write per page *)
  Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
  (* a restricting re-attach must shoot down this space's resident entries *)
  if restricting && (t.variant = V_asid || Pd.equal pd (current_domain t))
  then begin
    let lo = Segment.first_vpn seg in
    let hi = lo + seg.Segment.pages - 1 in
    let space = space_of t pd in
    let dropped = ref 0 in
    for vpn = lo to hi do
      if Tlb.invalidate t.tlb ~space ~vpn then incr dropped
    done;
    charge_sweep t (Tlb.capacity t.tlb) !dropped
  end

let detach t pd seg =
  let m = metrics t in
  m.Metrics.detaches <- m.Metrics.detaches + 1;
  Os_core.kernel_entry t.os;
  Os_core.remove_attachment t.os pd seg;
  Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
  (* shoot down this space's TLB entries for the segment: a sweep of the
     structure, unless the TLB is untagged and the domain is not running
     (its entries died at the last switch) *)
  if t.variant = V_asid || Pd.equal pd (current_domain t) then begin
    let lo = Segment.first_vpn seg in
    let hi = lo + seg.Segment.pages - 1 in
    let space = space_of t pd in
    let dropped = ref 0 in
    Tlb.iter
      (fun sp vpn _ -> if sp = space && vpn >= lo && vpn <= hi then incr dropped)
      t.tlb;
    for vpn = lo to hi do
      ignore (Tlb.invalidate t.tlb ~space ~vpn)
    done;
    charge_sweep t (Tlb.capacity t.tlb) !dropped
  end

let grant t pd va rights =
  let m = metrics t in
  let c = cost t in
  m.Metrics.grants <- m.Metrics.grants + 1;
  Os_core.kernel_entry t.os;
  Os_core.set_override t.os pd va rights;
  Os_core.charge t.os c.Cost_model.table_op;
  Machine_common.charge_shootdown t.os;
  (* update or drop the (space, page) TLB entries for the protection unit *)
  let g = geom t in
  let space = space_of t pd in
  List.iter
    (fun vpn ->
      if Tlb.peek t.tlb ~space ~vpn <> Tlb.absent then
        if t.variant = V_flush && not (Pd.equal pd (current_domain t)) then ()
        else begin
          ignore (Tlb.set_rights t.tlb ~space ~vpn rights);
          Os_core.charge t.os c.Cost_model.table_op
        end)
    (Va.vpns_of_ppn g (Os_core.prot_unit t.os va))

(* Change one domain's rights on a whole segment: rewrite the per-space
   page-table rights and sweep the TLB for that space's entries. *)
let protect_segment t pd seg rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  let g = geom t in
  List.iter
    (fun unit -> Os_core.clear_override t.os pd (unit lsl g.Geometry.prot_shift))
    (Os_core.override_units_in_segment t.os pd seg);
  Os_core.set_attachment t.os pd seg rights;
  Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
  if t.variant = V_asid || Pd.equal pd (current_domain t) then begin
    let lo = Segment.first_vpn seg in
    let hi = lo + seg.Segment.pages - 1 in
    let space = space_of t pd in
    ignore
      (Tlb.rewrite t.tlb (fun sp vpn e ->
           if sp = space && vpn >= lo && vpn <= hi then
             Tlb.with_rights e rights
           else e));
    charge_sweep t (Tlb.capacity t.tlb) 0
  end

let protect_all t va rights =
  let m = metrics t in
  let c = cost t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  let domains = Os_core.domain_list t.os in
  (match Segment_table.find_by_va t.os.Os_core.segments va with
  | None -> ()
  | Some seg ->
      List.iter
        (fun pd ->
          match Os_core.attachment t.os pd seg with
          | Some _ -> Os_core.set_override t.os pd va rights
          | None ->
              if not (Rights.equal (Os_core.rights t.os pd va) Rights.none)
              then Os_core.set_override t.os pd va rights)
        domains);
  Os_core.charge t.os (c.Cost_model.table_op * List.length domains);
  (* one TLB entry per space shares this page: sweep them all (§3.1),
     rewriting each from its own domain's truth — a domain that held no
     rights was not part of the change *)
  let g = geom t in
  let domain_of_space sp =
    match t.variant with
    | V_asid -> Pd.of_int sp
    | V_flush -> current_domain t
  in
  List.iter
    (fun vpn ->
      ignore
        (Tlb.rewrite t.tlb (fun sp evpn e ->
             if evpn = vpn then
               Tlb.with_rights e (Os_core.rights t.os (domain_of_space sp) va)
             else e)))
    (Va.vpns_of_ppn g (Os_core.prot_unit t.os va));
  charge_sweep t (Tlb.capacity t.tlb) 0

let flush_page_from_cache t vpn =
  let g = geom t in
  let m = metrics t in
  let lo = Va.va_of_vpn g vpn in
  let hi = lo + Geometry.page_size g in
  (* a space-tagged VIVT cache may hold the page once per space: flush the
     virtual range in every space (physical flush covers all) *)
  let flushed, _ =
    match Os_core.pfn_of t.os ~vpn with
    | Some pfn -> Data_cache.flush_pa_page t.cache ~pfn ~page_shift:g.Geometry.page_shift
    | None -> Data_cache.flush_va_range t.cache ~space:0 ~lo ~hi
  in
  m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + flushed;
  Os_core.charge t.os ((cost t).Cost_model.cache_line_flush * flushed)

let unmap_page t vpn =
  Os_core.kernel_entry t.os;
  flush_page_from_cache t vpn;
  Machine_common.flush_l2_page t.os t.l2 vpn;
  (* replicated TLB entries: shootdown across all spaces (§3.1) *)
  let inspected, removed = Tlb.invalidate_vpn_all_spaces t.tlb vpn in
  charge_sweep t inspected removed;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  Os_core.unmap t.os ~vpn ~write_back:true

let destroy_segment t seg =
  List.iter
    (fun pd ->
      if Option.is_some (Os_core.attachment t.os pd seg) then detach t pd seg)
    (Os_core.domain_list t.os);
  List.iter
    (fun vpn ->
      if Os_core.is_resident t.os ~vpn then unmap_page t vpn;
      Sasos_mem.Backing_store.drop t.os.Os_core.disk ~vpn)
    (Segment.vpns seg);
  ignore (Segment_table.destroy t.os.Os_core.segments seg.Segment.id)

let ensure_mapped t vpn =
  (* resident fast path first: the fault handler is the slow path *)
  let pfn = Os_core.pfn_int t.os ~vpn in
  if pfn >= 0 then pfn
  else begin
    if t.evict_hook == ignore then
      t.evict_hook <-
        (fun victim ->
          flush_page_from_cache t victim;
          ignore (Tlb.invalidate_vpn_all_spaces t.tlb victim));
    Os_core.ensure_mapped t.os ~vpn ~before_evict:t.evict_hook
  end

let data_path t kind va e =
  let g = geom t in
  let m = metrics t in
  let c = cost t in
  let vpn = Va.vpn_of_va g va in
  let write = kind = Access.Write in
  let pa = (Tlb.pfn_of e lsl g.Geometry.page_shift) lor Va.offset g va in
  Tlb.mark_used t.tlb ~space:(space_of t (current_domain t)) ~vpn ~write;
  if write then Os_core.mark_dirty t.os ~vpn;
  let space = cache_space_of t (current_domain t) in
  let r = Data_cache.access_bits t.cache ~space ~va ~pa ~write in
  if r = 0 then begin
    m.Metrics.cache_hits <- m.Metrics.cache_hits + 1;
    Os_core.charge t.os c.Cost_model.cache_hit
  end
  else begin
    m.Metrics.cache_misses <- m.Metrics.cache_misses + 1;
    Machine_common.charge_fill t.os t.l2 ~va ~pa ~write;
    if r land 2 <> 0 then begin
      m.Metrics.cache_writebacks <- m.Metrics.cache_writebacks + 1;
      Os_core.charge t.os c.Cost_model.cache_writeback
    end;
    m.Metrics.cache_synonyms <- Data_cache.synonyms_detected t.cache
  end

(* One attempt at the reference; a refill or rights fix restarts it.
   Top-level recursion, not a local [let rec]: a closure per call would
   allocate on every hit. *)
let rec attempt t kind va pd vpn space needed fuel =
  let m = metrics t in
  let c = cost t in
  if fuel = 0 then
    failwith "Conv_machine.access: protection fix did not converge";
  let e = Tlb.lookup t.tlb ~space ~vpn in
  if e <> Tlb.absent then begin
    m.Metrics.tlb_hits <- m.Metrics.tlb_hits + 1;
    if Rights.subset needed (Tlb.rights_of e) then begin
      data_path t kind va e;
      Access.Ok
    end
    else begin
      Os_core.kernel_entry t.os;
      let truth = Os_core.rights t.os pd va in
      if Rights.subset needed truth then begin
        (* stale entry: rights were upgraded since the refill *)
        ignore (Tlb.set_rights t.tlb ~space ~vpn truth);
        Os_core.charge t.os c.Cost_model.table_op;
        attempt t kind va pd vpn space needed (fuel - 1)
      end
      else begin
        m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
        Access.Protection_fault
      end
    end
  end
  else begin
    m.Metrics.tlb_misses <- m.Metrics.tlb_misses + 1;
    Os_core.kernel_entry t.os;
    let truth = Os_core.rights t.os pd va in
    if not (Rights.subset needed truth) then begin
      m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
      Access.Protection_fault
    end
    else begin
      let pfn = ensure_mapped t vpn in
      (* per-space linear tables: the walk costs more than the single
         shared table of a SASOS (§3.1) *)
      Os_core.charge t.os (2 * c.Cost_model.table_op);
      Tlb.install t.tlb ~space ~vpn
        (Tlb.pack ~pfn ~rights:truth ~aid:0 ~dirty:false ~referenced:false);
      m.Metrics.tlb_refills <- m.Metrics.tlb_refills + 1;
      Os_core.charge t.os c.Cost_model.tlb_refill;
      attempt t kind va pd vpn space needed (fuel - 1)
    end
  end

let access t kind va =
  let m = metrics t in
  let g = geom t in
  m.Metrics.accesses <- m.Metrics.accesses + 1;
  (match kind with
  | Access.Write -> m.Metrics.writes <- m.Metrics.writes + 1
  | Access.Read | Access.Execute -> m.Metrics.reads <- m.Metrics.reads + 1);
  let pd = current_domain t in
  let vpn = Va.vpn_of_va g va in
  attempt t kind va pd vpn (space_of t pd) (Access.rights_needed kind) 4

let resident_prot_entries_for t va =
  Tlb.entries_for_vpn t.tlb (Va.vpn_of_va (geom t) va)

let hw_over_allows t probes =
  List.exists
    (fun (pd, va) ->
      let vpn = Va.vpn_of_va (geom t) va in
      let e = Tlb.peek t.tlb ~space:(space_of t pd) ~vpn in
      e <> Tlb.absent
      && (t.variant = V_asid || Pd.equal pd (current_domain t))
      && not (Rights.subset (Tlb.rights_of e) (Os_core.rights t.os pd va)))
    probes

module Common = struct
  type t = state

  let model = System_intf.Conventional
  let os t = t.os
  let metrics = metrics

  let charge_external t ~cycles ~page_ins ~page_outs =
    Machine_common.charge_external t.os ~cycles ~page_ins ~page_outs
  let new_domain t = Os_core.new_domain t.os
  let current_domain = current_domain
  let switch_domain = switch_domain
  let destroy_domain = destroy_domain
  let new_segment = new_segment
  let destroy_segment = destroy_segment
  let attach = attach
  let detach = detach
  let grant = grant
  let protect_all = protect_all
  let protect_segment = protect_segment
  let unmap_page = unmap_page
  let access = access
  let resident_prot_entries_for = resident_prot_entries_for
  let hw_over_allows = hw_over_allows
end

module Asid = struct
  include Common

  let name = "conv-asid"
  let create config = make_create V_asid config
end

module Flush = struct
  include Common

  let name = "conv-flush"
  let create config = make_create V_flush config
end
