open Sasos_addr
open Sasos_hw
open Sasos_os

(* Both variants share every operation; they differ in [name] and in
   whether [create] tags the TLB, and so the VIVT cache, with the
   domain's ASID. *)
module Shared = struct
  include Machine_common

  type t = unit base

  let model = System_intf.Conventional

  (* The TLB space tag, which the VIVT cache's homonym tag mirrors: the
     domain's ASID, or 0 when the TLB is untagged and flushed on every
     switch. *)
  let space_of t pd = if t.tagged then Pd.to_int pd else 0

  (* Whether the TLB may hold the domain's entries: always when tagged,
     else only while it runs (its entries die at every switch). *)
  let holds t pd = t.tagged || Pd.equal pd (current_domain t)

  (* Shoot down the domain's TLB entries for the segment, a sweep of the
     structure, when the TLB may hold them. *)
  let shoot_down_segment t pd seg =
    if holds t pd then begin
      let lo = Segment.first_vpn seg in
      let space = space_of t pd in
      let dropped = ref 0 in
      for vpn = lo to lo + seg.Segment.pages - 1 do
        if Tlb.invalidate t.tlb ~space ~vpn then incr dropped
      done;
      charge_sweep t (Tlb.capacity t.tlb) !dropped
    end

  let switch_domain t pd =
    let m = metrics t in
    let c = cost t in
    m.Metrics.domain_switches <- m.Metrics.domain_switches + 1;
    Os_core.charge t.os (c.Cost_model.domain_switch + c.Cost_model.pd_id_write);
    if not t.tagged then begin
      (* no ASIDs: purge translations, and flush the VIVT cache to kill
         homonyms (the i860 regime, §2.2) *)
      let dropped = Tlb.flush t.tlb in
      charge_sweep t (Tlb.capacity t.tlb) dropped;
      let flushed, _wb = Data_cache.flush_all t.cache in
      m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + flushed;
      Os_core.charge t.os (c.Cost_model.cache_line_flush * flushed)
    end;
    t.os.Os_core.current <- pd

  (* Destroying a domain purges its address space's TLB entries. *)
  let destroy_domain t pd =
    Os_core.kernel_entry t.os;
    Os_core.destroy_domain t.os pd;
    (* untagged, its entries died at the last switch *)
    if t.tagged then begin
      let inspected, removed = Tlb.purge_space t.tlb (Pd.to_int pd) in
      charge_sweep t inspected removed
    end

  let attach t pd seg rights =
    let m = metrics t in
    m.Metrics.attaches <- m.Metrics.attaches + 1;
    Os_core.kernel_entry t.os;
    let restricting = Os_core.narrows t.os pd seg rights in
    Os_core.set_attachment t.os pd seg rights;
    (* duplicated per-space page-table state (§3.1): one table write per page *)
    Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
    (* a restricting re-attach must shoot down this space's resident entries *)
    if restricting then shoot_down_segment t pd seg

  let detach t pd seg =
    let m = metrics t in
    m.Metrics.detaches <- m.Metrics.detaches + 1;
    Os_core.kernel_entry t.os;
    Os_core.remove_attachment t.os pd seg;
    Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
    shoot_down_segment t pd seg

  let grant t pd va rights =
    let m = metrics t in
    let c = cost t in
    m.Metrics.grants <- m.Metrics.grants + 1;
    Os_core.kernel_entry t.os;
    Os_core.set_override t.os pd va rights;
    Os_core.charge t.os c.Cost_model.table_op;
    charge_shootdown t.os;
    (* update or drop the (space, page) TLB entries for the protection unit *)
    let g = geom t in
    let space = space_of t pd in
    List.iter
      (fun vpn ->
        if holds t pd && Tlb.peek t.tlb ~space ~vpn <> Tlb.absent then begin
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
    ignore (Os_core.protect_segment t.os pd seg rights);
    Os_core.charge t.os ((cost t).Cost_model.table_op * seg.Segment.pages);
    if holds t pd then begin
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
    Os_core.protect_all t.os va rights;
    Os_core.charge t.os
      (c.Cost_model.table_op * List.length (Os_core.domain_list t.os));
    (* one TLB entry per space shares this page: sweep them all (§3.1),
       rewriting each from its own domain's truth — a domain that held no
       rights was not part of the change *)
    let g = geom t in
    let domain_of_space sp =
      if t.tagged then Pd.of_int sp else current_domain t
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

  let unmap_page t vpn =
    Os_core.kernel_entry t.os;
    (* replicated TLB entries: shootdown across all spaces (§3.1) *)
    let inspected, removed = Tlb.invalidate_vpn_all_spaces t.tlb vpn in
    charge_sweep t inspected removed;
    unmap t vpn

  let destroy_segment t seg =
    Machine_common.destroy_segment t seg ~detach:(detach t)
      ~unmap_page:(unmap_page t)

  (* One attempt at the reference; a refill or rights fix restarts it.
     Top-level recursion, not a local [let rec]: a closure per call would
     allocate on every hit. *)
  let rec attempt t kind va pd vpn space needed fuel =
    let m = t.os.Os_core.metrics in
    let c = t.os.Os_core.cost in
    if fuel = 0 then
      failwith "Conv_machine.access: protection fix did not converge";
    let e = Tlb.lookup t.tlb ~space ~vpn in
    if e <> Tlb.absent then begin
      m.Metrics.tlb_hits <- m.Metrics.tlb_hits + 1;
      if Rights.subset needed (Tlb.rights_of e) then begin
        data_path t kind va e ~space;
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
        else protection_fault t
      end
    end
    else begin
      m.Metrics.tlb_misses <- m.Metrics.tlb_misses + 1;
      Os_core.kernel_entry t.os;
      let truth = Os_core.rights t.os pd va in
      if not (Rights.subset needed truth) then protection_fault t
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
    count_access t kind;
    let pd = t.os.Os_core.current in
    let vpn = Va.vpn_of_va t.os.Os_core.geom va in
    attempt t kind va pd vpn (space_of t pd) (Access.rights_needed kind) 4

  let resident_prot_entries_for t va =
    Tlb.entries_for_vpn t.tlb (Va.vpn_of_va (geom t) va)

  let hw_over_allows t probes =
    List.exists
      (fun (pd, va) ->
        let vpn = Va.vpn_of_va (geom t) va in
        let e = Tlb.peek t.tlb ~space:(space_of t pd) ~vpn in
        e <> Tlb.absent
        && holds t pd
        && not (Rights.subset (Tlb.rights_of e) (Os_core.rights t.os pd va)))
      probes
end

module Asid = struct
  include Shared

  let name = "conv-asid"
  let create config = Machine_common.create ~tagged:true config ignore
end

module Flush = struct
  include Shared

  let name = "conv-flush"
  let create config = Machine_common.create config ignore
end
