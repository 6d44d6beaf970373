open Sasos_addr
open Sasos_hw
open Sasos_os

(* AID 0 is the architecture's public group; AID 1 is "limbo", a group with
   no members, holding pages no domain may access. *)
let limbo_aid = 1

type t = {
  os : Os_core.t;
  tlb : Tlb.t;
  pgc : Page_group_cache.t;
  cache : Data_cache.t;
  l2 : Data_cache.t option;
  group_members : (int, (int, bool) Hashtbl.t) Hashtbl.t;
      (* aid -> (pd -> write_disabled) *)
  domain_groups : (int, (int, bool) Hashtbl.t) Hashtbl.t;
      (* pd -> (aid -> write_disabled) *)
  seg_group : (int, int) Hashtbl.t; (* segment id -> home aid *)
  seg_union : (int, Rights.t) Hashtbl.t; (* home group page rights *)
  sig_groups : (string, int) Hashtbl.t; (* member signature -> aid *)
  page_aid : (Va.vpn, int) Hashtbl.t; (* pages moved out of their home *)
  page_rights : (Va.vpn, Rights.t) Hashtbl.t;
  mutable next_aid : int;
  (* built once, reused on every page fault (see Plb_machine) *)
  mutable evict_hook : int -> unit;
}

let name = "page-group"
let model = System_intf.Page_group

let create (config : Config.t) =
  let os = Os_core.create config in
  let probe = os.Os_core.probe in
  {
    os;
    tlb =
      Tlb.create ~policy:config.Config.policy ~seed:config.Config.seed ~probe
        ~sets:config.Config.tlb_sets ~ways:config.Config.tlb_ways ();
    pgc =
      Page_group_cache.create ~policy:config.Config.policy
        ~seed:config.Config.seed ~probe ~entries:config.Config.pg_entries ();
    cache =
      Data_cache.create ~policy:config.Config.policy ~seed:config.Config.seed
        ~probe ~org:config.Config.cache_org
        ~size_bytes:config.Config.cache_bytes
        ~line_bytes:config.Config.cache_line ~ways:config.Config.cache_ways ();
    l2 = Machine_common.l2_of_config ~probe config;
    group_members = Hashtbl.create 256;
    domain_groups = Hashtbl.create 64;
    seg_group = Hashtbl.create 256;
    seg_union = Hashtbl.create 256;
    sig_groups = Hashtbl.create 256;
    page_aid = Hashtbl.create 1024;
    page_rights = Hashtbl.create 1024;
    next_aid = limbo_aid + 1;
    evict_hook = ignore;
  }

let os t = t.os
let metrics t = t.os.Os_core.metrics

let charge_external t ~cycles ~page_ins ~page_outs =
  Machine_common.charge_external t.os ~cycles ~page_ins ~page_outs
let cost t = t.os.Os_core.cost
let geom t = t.os.Os_core.geom
let new_domain t = Os_core.new_domain t.os
let current_domain t = t.os.Os_core.current

(* --- group bookkeeping ---------------------------------------------- *)

let members_of t aid =
  match Hashtbl.find_opt t.group_members aid with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.group_members aid tbl;
      tbl

let groups_of t pd =
  match Hashtbl.find_opt t.domain_groups pd with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.domain_groups pd tbl;
      tbl

let add_member t aid pd wd =
  Hashtbl.replace (members_of t aid) pd wd;
  Hashtbl.replace (groups_of t pd) aid wd

let remove_member t aid pd =
  Hashtbl.remove (members_of t aid) pd;
  (match Hashtbl.find_opt t.domain_groups pd with
  | Some tbl -> Hashtbl.remove tbl aid
  | None -> ());
  (* never leave a stale fast-path entry for the running domain *)
  if Pd.to_int (current_domain t) = pd then
    ignore (Page_group_cache.drop t.pgc ~aid)

let domain_has_group t pd aid =
  match Hashtbl.find_opt t.domain_groups pd with
  | Some tbl -> Hashtbl.find_opt tbl aid
  | None -> None

let fresh_aid t =
  let aid = t.next_aid in
  t.next_aid <- aid + 1;
  aid

(* Canonical signature of a member set: "pd:wd" pairs sorted by pd. Page
   rights are per page and deliberately excluded — pages with different
   Rights fields can share a group. *)
let signature members =
  members
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (pd, wd) -> Printf.sprintf "%d:%c" pd (if wd then '1' else '0'))
  |> String.concat ","

let members_signature_of_table tbl =
  signature (Hashtbl.fold (fun pd wd acc -> (pd, wd) :: acc) tbl [])

(* Given the ground-truth rights of each interested domain, compute a
   single-group encoding: the page Rights field is the union, and domains
   whose rights are exactly (union minus write) get the write-disable bit.
   Domains whose rights differ in read/execute bits are inexpressible in
   the same group and are excluded — they will fault and regroup the page
   to their own pattern (the alternation of §4.1.2). *)
let encode ~priority doms =
  let union = List.fold_left (fun acc (_, r) -> Rights.union acc r) Rights.none doms in
  let compatible base (_, r) =
    Rights.equal r base
    || (Rights.can_write base && Rights.equal r (Rights.remove base Rights.w))
  in
  let base =
    if List.for_all (compatible union) doms then union
    else begin
      match priority with
      | Some p -> begin
          match List.find_opt (fun (d, _) -> Pd.equal d p) doms with
          | Some (_, r) -> r
          | None -> snd (List.hd doms)
        end
      | None -> snd (List.hd doms)
    end
  in
  let members =
    List.filter (compatible base) doms
    |> List.map (fun (d, r) ->
           (Pd.to_int d, Rights.can_write base && not (Rights.can_write r)))
  in
  (members, base)

let find_or_create_sig_group t members =
  let s = signature members in
  match Hashtbl.find_opt t.sig_groups s with
  | Some aid -> aid
  | None ->
      let aid = fresh_aid t in
      Hashtbl.replace t.sig_groups s aid;
      List.iter (fun (pd, wd) -> add_member t aid pd wd) members;
      aid

(* Current group and Rights field of a page. *)
let page_protection t vpn =
  match Hashtbl.find_opt t.page_aid vpn with
  | Some aid -> (aid, Option.value (Hashtbl.find_opt t.page_rights vpn) ~default:Rights.none)
  | None -> begin
      let va = Va.va_of_vpn (geom t) vpn in
      match Segment_table.find_by_va t.os.Os_core.segments va with
      | None -> (limbo_aid, Rights.none)
      | Some seg -> begin
          let sid = Segment.id_to_int seg.Segment.id in
          match Hashtbl.find_opt t.seg_group sid with
          | Some aid ->
              (aid, Option.value (Hashtbl.find_opt t.seg_union sid) ~default:Rights.none)
          | None -> (limbo_aid, Rights.none)
        end
    end

let refresh_tlb_entry t vpn =
  if Tlb.peek t.tlb ~space:0 ~vpn <> Tlb.absent then begin
    let aid, rights = page_protection t vpn in
    ignore (Tlb.set_protection t.tlb ~space:0 ~vpn ~aid ~rights);
    Os_core.charge t.os (cost t).Cost_model.table_op
  end

(* Move a page to the group encoding its current ground truth (Table 1's
   "move this page to that page group"). *)
let regroup_page t ?priority vpn =
  let m = metrics t in
  let va = Va.va_of_vpn (geom t) vpn in
  let doms = Os_core.domains_with_rights t.os va in
  let old_aid, old_rights = page_protection t vpn in
  let target_aid, target_rights =
    if doms = [] then (limbo_aid, Rights.none)
    else begin
      let members, base =
        match (t.os.Os_core.config.Config.pg_lock_policy, priority) with
        | `Private, Some p
          when List.exists (fun (d, _) -> Pd.equal d p) doms ->
            (* §4.1.2 first option: all locks held by a domain live in a
               group private to that domain; shared pages alternate between
               the holders' private groups as they fault *)
            let r = List.assoc p doms in
            ([ (Pd.to_int p, false) ], r)
        | (`Private | `Shared), _ -> encode ~priority doms
      in
      (* prefer the segment's home group when the pattern matches it — but
         never for a page with a live override: home membership follows
         attachments, and a later attach would silently widen this page *)
      let home =
        if Os_core.page_has_override t.os va then None
        else
        match Segment_table.find_by_va t.os.Os_core.segments va with
        | None -> None
        | Some seg -> begin
            let sid = Segment.id_to_int seg.Segment.id in
            match Hashtbl.find_opt t.seg_group sid with
            | Some aid
              when members_signature_of_table (members_of t aid)
                   = signature members
                   && Rights.equal
                        (Option.value (Hashtbl.find_opt t.seg_union sid)
                           ~default:Rights.none)
                        base ->
                Some aid
            | Some _ | None -> None
          end
      in
      match home with
      | Some aid -> (aid, base)
      | None -> (find_or_create_sig_group t members, base)
    end
  in
  let is_home =
    match Segment_table.find_by_va t.os.Os_core.segments va with
    | Some seg ->
        Hashtbl.find_opt t.seg_group (Segment.id_to_int seg.Segment.id)
        = Some target_aid
    | None -> false
  in
  if is_home then begin
    Hashtbl.remove t.page_aid vpn;
    Hashtbl.remove t.page_rights vpn
  end
  else begin
    Hashtbl.replace t.page_aid vpn target_aid;
    Hashtbl.replace t.page_rights vpn target_rights
  end;
  if target_aid <> old_aid || not (Rights.equal target_rights old_rights)
  then begin
    if target_aid <> old_aid then m.Metrics.regroups <- m.Metrics.regroups + 1;
    (* Table 1: "determine the correct page-group for the pages locked by
       the current domain, and move this page to that page group" — group
       determination plus the page-table move, then the TLB update, which
       other CPUs' TLBs must also see *)
    Os_core.charge t.os (2 * (cost t).Cost_model.table_op);
    Machine_common.charge_shootdown t.os;
    refresh_tlb_entry t vpn
  end

(* --- domains --------------------------------------------------------- *)

let switch_domain t pd =
  let m = metrics t in
  let c = cost t in
  m.Metrics.domain_switches <- m.Metrics.domain_switches + 1;
  Os_core.charge t.os c.Cost_model.domain_switch;
  (* purge the page-group cache: its contents describe the old domain *)
  let dropped = Page_group_cache.flush t.pgc in
  m.Metrics.entries_purged <- m.Metrics.entries_purged + dropped;
  m.Metrics.entries_inspected <-
    m.Metrics.entries_inspected + Page_group_cache.capacity t.pgc;
  Os_core.charge t.os
    (c.Cost_model.purge_per_entry * Page_group_cache.capacity t.pgc);
  t.os.Os_core.current <- pd;
  (* optional eager reload of the new domain's groups (§4.1.4) *)
  let eager = t.os.Os_core.config.Config.pg_eager_reload in
  if eager > 0 then begin
    let loaded = ref 0 in
    (match Hashtbl.find_opt t.domain_groups (Pd.to_int pd) with
    | None -> ()
    | Some tbl ->
        Hashtbl.iter
          (fun aid wd ->
            if !loaded < eager then begin
              Page_group_cache.load t.pgc ~aid ~write_disabled:wd;
              incr loaded;
              m.Metrics.pg_refills <- m.Metrics.pg_refills + 1;
              Os_core.charge t.os c.Cost_model.pg_refill
            end)
          tbl)
  end

(* --- segments -------------------------------------------------------- *)

let new_segment t ?name ?align_shift ~pages () =
  let seg =
    Segment_table.allocate t.os.Os_core.segments ?name ?align_shift ~pages ()
  in
  let aid = fresh_aid t in
  Hashtbl.replace t.seg_group (Segment.id_to_int seg.Segment.id) aid;
  Hashtbl.replace t.seg_union (Segment.id_to_int seg.Segment.id) Rights.none;
  seg

(* Recompute the home group's member set and page Rights field from the
   current attachments. *)
let rebuild_home t (seg : Segment.t) =
  let sid = Segment.id_to_int seg.Segment.id in
  match Hashtbl.find_opt t.seg_group sid with
  | None -> ()
  | Some aid ->
      let atts =
        List.filter_map
          (fun pd ->
            match Os_core.attachment t.os pd seg with
            | Some r when not (Rights.equal r Rights.none) -> Some (pd, r)
            | Some _ | None -> None)
          (Os_core.domain_list t.os)
      in
      let old_union =
        Option.value (Hashtbl.find_opt t.seg_union sid) ~default:Rights.none
      in
      let old = members_of t aid in
      let old_pds = Hashtbl.fold (fun pd _ acc -> pd :: acc) old [] in
      List.iter (fun pd -> remove_member t aid pd) old_pds;
      let new_union =
        if atts = [] then begin
          Hashtbl.replace t.seg_union sid Rights.none;
          Rights.none
        end
        else begin
          let members, base = encode ~priority:None atts in
          List.iter (fun (pd, wd) -> add_member t aid pd wd) members;
          Hashtbl.replace t.seg_union sid base;
          (* keep the running domain's fast path coherent with its new bit *)
          let cur = Pd.to_int (current_domain t) in
          (match List.assoc_opt cur members with
          | Some wd -> ignore (Page_group_cache.set_write_disable t.pgc ~aid wd)
          | None -> ignore (Page_group_cache.drop t.pgc ~aid));
          base
        end
      in
      (* a changed Rights field must reach resident TLB entries of the
         segment's home pages eagerly — a stale wider value would let the
         hardware over-allow. One sweep of the TLB. *)
      if not (Rights.equal old_union new_union) then begin
        let m = metrics t in
        let lo = Segment.first_vpn seg in
        let hi = lo + seg.Segment.pages - 1 in
        let touched =
          Tlb.rewrite t.tlb (fun _sp vpn e ->
              if vpn >= lo && vpn <= hi && not (Hashtbl.mem t.page_aid vpn)
              then Tlb.with_rights e new_union
              else e)
        in
        m.Metrics.entries_inspected <-
          m.Metrics.entries_inspected + Tlb.capacity t.tlb;
        Os_core.charge t.os
          ((cost t).Cost_model.purge_per_entry * Tlb.capacity t.tlb
          * t.os.Os_core.config.Config.cpus);
        Machine_common.charge_shootdown t.os;
        ignore touched
      end

(* Destroying a domain scrubs its group memberships; pages keep their
   groups (other members are unaffected, the dead domain simply no longer
   matches any PID). *)
let destroy_domain t pd =
  Os_core.kernel_entry t.os;
  Os_core.destroy_domain t.os pd;
  let i = Pd.to_int pd in
  (match Hashtbl.find_opt t.domain_groups i with
  | Some tbl ->
      let aids = Hashtbl.fold (fun aid _ acc -> aid :: acc) tbl [] in
      List.iter (fun aid -> remove_member t aid i) aids;
      Os_core.charge t.os ((cost t).Cost_model.table_op * List.length aids)
  | None -> ());
  Hashtbl.remove t.domain_groups i

(* Pages moved out of the home group carry an encoding of the attachment
   rights at the time they were regrouped. A restriction of any attachment
   would leave those encodings over-allowing, so restrictions re-derive
   them from the truth. *)
let regroup_override_pages t (seg : Segment.t) =
  List.iter
    (fun vpn -> if Hashtbl.mem t.page_aid vpn then regroup_page t vpn)
    (Segment.vpns seg)

(* Attach: add the segment's page-group to the domain's set; one pg-cache
   fill when the domain is running. TLB entries are untouched (Table 1). *)
let attach t pd seg rights =
  let m = metrics t in
  let c = cost t in
  m.Metrics.attaches <- m.Metrics.attaches + 1;
  Os_core.kernel_entry t.os;
  let restricting =
    match Os_core.attachment t.os pd seg with
    | Some old -> not (Rights.subset old rights)
    | None -> false
  in
  Os_core.set_attachment t.os pd seg rights;
  rebuild_home t seg;
  if restricting then regroup_override_pages t seg;
  Os_core.charge t.os c.Cost_model.table_op;
  (match Hashtbl.find_opt t.seg_group (Segment.id_to_int seg.Segment.id) with
  | Some aid when Pd.equal pd (current_domain t) -> begin
      match domain_has_group t (Pd.to_int pd) aid with
      | Some wd ->
          Page_group_cache.load t.pgc ~aid ~write_disabled:wd;
          m.Metrics.pg_refills <- m.Metrics.pg_refills + 1;
          Os_core.charge t.os c.Cost_model.pg_refill
      | None -> ()
    end
  | Some _ | None -> ())

(* Detach: remove the group from the domain's set and the pg-cache. Pages
   the domain had private rights on (overrides) must be regrouped. *)
let detach t pd seg =
  let m = metrics t in
  let c = cost t in
  m.Metrics.detaches <- m.Metrics.detaches + 1;
  Os_core.kernel_entry t.os;
  let override_units = Os_core.override_units_in_segment t.os pd seg in
  Os_core.remove_attachment t.os pd seg;
  rebuild_home t seg;
  (match Hashtbl.find_opt t.seg_group (Segment.id_to_int seg.Segment.id) with
  | Some aid ->
      if Pd.equal pd (current_domain t) then
        ignore (Page_group_cache.drop t.pgc ~aid)
  | None -> ());
  Os_core.charge t.os c.Cost_model.table_op;
  let g = geom t in
  List.iter
    (fun unit ->
      List.iter
        (fun vpn -> if Segment.contains seg (Va.va_of_vpn g vpn) then
            regroup_page t vpn)
        (Va.vpns_of_ppn g unit))
    override_units;
  (* other domains' override pages embedded this domain's old rights *)
  regroup_override_pages t seg

(* --- page-level protection ------------------------------------------ *)

let vpns_of_unit t va =
  let g = geom t in
  Va.vpns_of_ppn g (Os_core.prot_unit t.os va)

let grant t pd va rights =
  let m = metrics t in
  m.Metrics.grants <- m.Metrics.grants + 1;
  Os_core.kernel_entry t.os;
  Os_core.set_override t.os pd va rights;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  List.iter (fun vpn -> regroup_page t ~priority:pd vpn) (vpns_of_unit t va)

(* Change one domain's rights on a whole segment: usually just a new
   attachment pattern — a write-disable bit or a membership change on the
   home group, with no per-page hardware work (Table 1's page-group win). *)
let protect_segment t pd seg rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  let override_units = Os_core.override_units_in_segment t.os pd seg in
  let g = geom t in
  List.iter
    (fun unit -> Os_core.clear_override t.os pd (unit lsl g.Geometry.prot_shift))
    override_units;
  Os_core.set_attachment t.os pd seg rights;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  rebuild_home t seg;
  (* pages the domain had private rights on return toward the home group *)
  List.iter
    (fun unit ->
      List.iter
        (fun vpn ->
          if Segment.contains seg (Va.va_of_vpn g vpn) then regroup_page t vpn)
        (Va.vpns_of_ppn g unit))
    override_units;
  (* and every other override page re-derives its encoding from the truth *)
  regroup_override_pages t seg

let protect_all t va rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
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
        (Os_core.domain_list t.os));
  Os_core.charge t.os (cost t).Cost_model.table_op;
  (* the change is uniform across domains: a single regroup (usually just a
     Rights-field update in one TLB entry) per page *)
  List.iter (fun vpn -> regroup_page t vpn) (vpns_of_unit t va)

(* --- paging ---------------------------------------------------------- *)

let flush_page_from_cache t vpn =
  let g = geom t in
  let m = metrics t in
  let lo = Va.va_of_vpn g vpn in
  let hi = lo + Geometry.page_size g in
  let flushed = Data_cache.flush_va_range_count t.cache ~space:0 ~lo ~hi in
  m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + flushed;
  Os_core.charge t.os ((cost t).Cost_model.cache_line_flush * flushed)

let unmap_page t vpn =
  Os_core.kernel_entry t.os;
  Machine_common.charge_shootdown t.os;
  flush_page_from_cache t vpn;
  Machine_common.flush_l2_page t.os t.l2 vpn;
  ignore (Tlb.invalidate t.tlb ~space:0 ~vpn);
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
      Hashtbl.remove t.page_aid vpn;
      Hashtbl.remove t.page_rights vpn;
      Sasos_mem.Backing_store.drop t.os.Os_core.disk ~vpn)
    (Segment.vpns seg);
  let sid = Segment.id_to_int seg.Segment.id in
  (match Hashtbl.find_opt t.seg_group sid with
  | Some aid ->
      let tbl = members_of t aid in
      let pds = Hashtbl.fold (fun pd _ acc -> pd :: acc) tbl [] in
      List.iter (fun pd -> remove_member t aid pd) pds;
      Hashtbl.remove t.group_members aid
  | None -> ());
  Hashtbl.remove t.seg_group sid;
  Hashtbl.remove t.seg_union sid;
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
          ignore (Tlb.invalidate t.tlb ~space:0 ~vpn:victim));
    Os_core.ensure_mapped t.os ~vpn ~before_evict:t.evict_hook
  end

(* --- memory references ----------------------------------------------- *)

let data_path t kind va e =
  let g = geom t in
  let m = metrics t in
  let c = cost t in
  let vpn = Va.vpn_of_va g va in
  let write = kind = Access.Write in
  let pa = (Tlb.pfn_of e lsl g.Geometry.page_shift) lor Va.offset g va in
  Tlb.mark_used t.tlb ~space:0 ~vpn ~write;
  if write then Os_core.mark_dirty t.os ~vpn;
  let r = Data_cache.access_bits t.cache ~space:0 ~va ~pa ~write in
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

(* One attempt at the reference. Every protection fix restarts the
   instruction (PA-RISC semantics), so structure probes are re-counted
   on each attempt. Top-level recursion, not a local [let rec]: a
   closure per call would allocate on every hit. *)
let rec attempt t kind va vpn needed fuel =
  let m = metrics t in
  let c = cost t in
  if fuel = 0 then
    failwith "Pg_machine.access: protection fix did not converge";
  Os_core.charge t.os c.Cost_model.pg_sequential_penalty;
  let e = Tlb.lookup t.tlb ~space:0 ~vpn in
  if e = Tlb.absent then begin
    m.Metrics.tlb_misses <- m.Metrics.tlb_misses + 1;
    Os_core.kernel_entry t.os;
    let pd = current_domain t in
    let truth = Os_core.rights t.os pd va in
    if
      (not (Os_core.is_resident t.os ~vpn))
      && not (Rights.subset needed truth)
    then begin
      (* no translation and no right to create one: fault without
         paging in *)
      m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
      Access.Protection_fault
    end
    else begin
      let pfn = ensure_mapped t vpn in
      let aid, rights = page_protection t vpn in
      Tlb.install t.tlb ~space:0 ~vpn
        (Tlb.pack ~pfn ~rights ~aid ~dirty:false ~referenced:false);
      m.Metrics.tlb_refills <- m.Metrics.tlb_refills + 1;
      Os_core.charge t.os c.Cost_model.tlb_refill;
      attempt t kind va vpn needed (fuel - 1)
    end
  end
  else begin
    m.Metrics.tlb_hits <- m.Metrics.tlb_hits + 1;
    let eaid = Tlb.aid_of e in
    let chk = Page_group_cache.check_bits t.pgc ~aid:eaid in
    if chk >= 0 then begin
      let write_disabled = chk = 1 in
      if eaid <> 0 then m.Metrics.pg_hits <- m.Metrics.pg_hits + 1;
      let erights = Tlb.rights_of e in
      let effective =
        if write_disabled then Rights.remove erights Rights.w else erights
      in
      if Rights.subset needed effective then begin
        data_path t kind va e;
        Access.Ok
      end
      else begin
        Os_core.kernel_entry t.os;
        let pd = current_domain t in
        let truth = Os_core.rights t.os pd va in
        if not (Rights.subset needed truth) then begin
          m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
          Access.Protection_fault
        end
        else begin
          (* the hardware under-allows: refresh the stale TLB entry,
             or regroup when the pattern is inexpressible *)
          let aid', rights' = page_protection t vpn in
          if aid' <> eaid || not (Rights.equal rights' erights) then
            refresh_tlb_entry t vpn
          else regroup_page t ~priority:pd vpn;
          (* the refresh/regroup may have rewritten the entry's AID in
             place; the write-disable fix-up below must see the current
             value, as the hardware would *)
          let cur = Tlb.peek t.tlb ~space:0 ~vpn in
          let cur_aid = if cur = Tlb.absent then eaid else Tlb.aid_of cur in
          (* write-disable bit for this domain may also be stale *)
          (match domain_has_group t (Pd.to_int pd) cur_aid with
          | Some wd when wd <> write_disabled ->
              ignore
                (Page_group_cache.set_write_disable t.pgc ~aid:cur_aid wd)
          | Some _ | None -> ());
          attempt t kind va vpn needed (fuel - 1)
        end
      end
    end
    else begin
      m.Metrics.pg_misses <- m.Metrics.pg_misses + 1;
      Os_core.kernel_entry t.os;
      let pd = current_domain t in
      match domain_has_group t (Pd.to_int pd) eaid with
      | Some wd ->
          Page_group_cache.load t.pgc ~aid:eaid ~write_disabled:wd;
          m.Metrics.pg_refills <- m.Metrics.pg_refills + 1;
          Os_core.charge t.os c.Cost_model.pg_refill;
          attempt t kind va vpn needed (fuel - 1)
      | None -> begin
          let truth = Os_core.rights t.os pd va in
          if Rights.subset needed truth then begin
            (* the domain's pattern is not represented: move the page
               into a group of its own pattern and restart *)
            regroup_page t ~priority:pd vpn;
            refresh_tlb_entry t vpn;
            attempt t kind va vpn needed (fuel - 1)
          end
          else begin
            m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
            Access.Protection_fault
          end
        end
    end
  end

let access t kind va =
  let m = metrics t in
  let g = geom t in
  m.Metrics.accesses <- m.Metrics.accesses + 1;
  (match kind with
  | Access.Write -> m.Metrics.writes <- m.Metrics.writes + 1
  | Access.Read | Access.Execute -> m.Metrics.reads <- m.Metrics.reads + 1);
  let vpn = Va.vpn_of_va g va in
  attempt t kind va vpn (Access.rights_needed kind) 8

(* --- introspection ---------------------------------------------------- *)

let resident_prot_entries_for t va =
  let vpn = Va.vpn_of_va (geom t) va in
  if Tlb.peek t.tlb ~space:0 ~vpn <> Tlb.absent then 1 else 0

let group_count t = Hashtbl.length t.group_members

let aid_of_va t va = fst (page_protection t (Va.vpn_of_va (geom t) va))

let pgc_wd_of t aid =
  let found = ref None in
  Page_group_cache.iter (fun a wd -> if a = aid then found := Some wd) t.pgc;
  !found

let hw_over_allows t probes =
  List.exists
    (fun (pd, va) ->
      let vpn = Va.vpn_of_va (geom t) va in
      let e = Tlb.peek t.tlb ~space:0 ~vpn in
      if e = Tlb.absent then false
      else begin
        let eaid = Tlb.aid_of e and erights = Tlb.rights_of e in
        if eaid = 0 then
          not (Rights.subset erights (Os_core.rights t.os pd va))
        else begin
          let membership =
            if Pd.equal pd (current_domain t) then pgc_wd_of t eaid
            else domain_has_group t (Pd.to_int pd) eaid
          in
          match membership with
          | None -> false
          | Some wd ->
              let effective =
                if wd then Rights.remove erights Rights.w else erights
              in
              not (Rights.subset effective (Os_core.rights t.os pd va))
        end
      end)
    probes
