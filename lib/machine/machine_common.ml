(* The machine skeleton: the state every machine shares, and the paging
   and data-path code that does not depend on the protection check. Each
   machine includes this module, keeps its own protection structures in
   [prot], and supplies its top-level access loop, its purges and its
   table cleanup. Plain functions only: a functor or a record of closures
   would put an indirect call on every access (no flambda). *)

open Sasos_addr
open Sasos_hw
open Sasos_os

type 'p base = {
  os : Os_core.t;
  tlb : Tlb.t;
  cache : Data_cache.t;
  l2 : Data_cache.t option;
  tagged : bool;
  evict_hook : Va.vpn -> unit;
  prot : 'p;
}

let os b = b.os
let metrics b = b.os.Os_core.metrics
let cost b = b.os.Os_core.cost
let geom b = b.os.Os_core.geom
let new_domain b = Os_core.new_domain b.os
let current_domain b = b.os.Os_core.current

let new_segment b ?name ?align_shift ~pages () =
  Segment_table.allocate b.os.Os_core.segments ?name ?align_shift ~pages ()

(* Workload-level costs the machine does not model. *)
let charge_external b ~cycles ~page_ins ~page_outs =
  if cycles < 0 || page_ins < 0 || page_outs < 0 then
    invalid_arg "charge_external: negative amount";
  let m = metrics b in
  m.Metrics.page_ins <- m.Metrics.page_ins + page_ins;
  m.Metrics.page_outs <- m.Metrics.page_outs + page_outs;
  Os_core.charge b.os cycles

(* One inter-processor broadcast: the kernel interrupts every other CPU so
   its private lookup structures see the mutation (§4.1.3: unmapping "is
   done with a small number of instructions on each processor"). *)
let charge_shootdown (os : Os_core.t) =
  let cpus = os.Os_core.config.Config.cpus in
  if cpus > 1 then begin
    let m = os.Os_core.metrics in
    m.Metrics.shootdowns <- m.Metrics.shootdowns + 1;
    Os_core.charge os (os.Os_core.cost.Cost_model.ipi * (cpus - 1))
  end

let charge_sweep b inspected removed =
  let m = metrics b in
  m.Metrics.entries_inspected <- m.Metrics.entries_inspected + inspected;
  m.Metrics.entries_purged <- m.Metrics.entries_purged + removed;
  (* every CPU sweeps its private copy of the structure *)
  Os_core.charge b.os
    ((cost b).Cost_model.purge_per_entry * inspected
    * b.os.Os_core.config.Config.cpus);
  if inspected > 0 then charge_shootdown b.os

let count_access b kind =
  let m = metrics b in
  m.Metrics.accesses <- m.Metrics.accesses + 1;
  match kind with
  | Access.Write -> m.Metrics.writes <- m.Metrics.writes + 1
  | Access.Read | Access.Execute -> m.Metrics.reads <- m.Metrics.reads + 1

(* The kernel has confirmed that the truth denies the access. *)
let protection_fault b =
  let m = metrics b in
  m.Metrics.protection_faults <- m.Metrics.protection_faults + 1;
  Access.Protection_fault

(* --- paging ------------------------------------------------------------ *)

(* Release a mapped page's cached lines, L1 then L2, while its frame is
   still its own. Every line of a mapped page holds the page's frame, so a
   frame with no line ends the L1 flush before it walks. Untagged L1
   lines hold one copy per page and go by virtual range; space-tagged
   ones may hold a copy per space, and go by frame. Allocation-free:
   eviction runs it on every page fault under memory pressure. *)
let release_lines b vpn =
  let pfn = Os_core.pfn_int b.os ~vpn in
  if pfn >= 0 then begin
    let l1 =
      if Data_cache.frame_lines b.cache ~pfn = 0 then 0
      else if b.tagged then Data_cache.flush_pa_page_count b.cache ~pfn
      else
        let g = geom b in
        let lo = Va.va_of_vpn g vpn in
        Data_cache.flush_va_range_count b.cache ~space:0 ~lo
          ~hi:(lo + Geometry.page_size g)
    in
    let l2 =
      match b.l2 with
      | None -> 0
      | Some l2 -> Data_cache.flush_pa_page_count l2 ~pfn
    in
    let m = metrics b in
    m.Metrics.cache_lines_flushed <- m.Metrics.cache_lines_flushed + l1 + l2;
    Os_core.charge b.os ((cost b).Cost_model.cache_line_flush * (l1 + l2))
  end

(* Eviction releases the victim's frame: its lines leave both cache
   levels and its translation leaves the TLB (every space, when tagged),
   so the frame's next tenant finds nothing of it. *)
let evict b victim =
  release_lines b victim;
  if b.tagged then ignore (Tlb.drop_vpn b.tlb victim)
  else ignore (Tlb.invalidate b.tlb ~space:0 ~vpn:victim)

let ensure_mapped b vpn =
  (* resident fast path first: the fault handler is the slow path *)
  let pfn = Os_core.pfn_int b.os ~vpn in
  if pfn >= 0 then pfn
  else Os_core.ensure_mapped b.os ~vpn ~before_evict:b.evict_hook

let unmap b vpn =
  release_lines b vpn;
  Os_core.charge b.os (cost b).Cost_model.table_op;
  Os_core.unmap b.os ~vpn ~write_back:true

let destroy_segment b seg ~detach ~unmap_page =
  List.iter
    (fun pd ->
      if Option.is_some (Os_core.attachment b.os pd seg) then detach pd seg)
    (Os_core.domain_list b.os);
  List.iter
    (fun vpn ->
      if Os_core.is_resident b.os ~vpn then unmap_page vpn;
      Sasos_mem.Backing_store.drop b.os.Os_core.disk ~vpn)
    (Segment.vpns seg);
  ignore (Segment_table.destroy b.os.Os_core.segments seg.Segment.id)

(* --- the data path ------------------------------------------------------ *)

(* Probe the L1 and, on a miss, fill from the L2 when present and hit,
   else from memory. True on an L1 hit. *)
let cache_access b ~space ~va ~pa ~write =
  let m = metrics b in
  let c = cost b in
  let r = Data_cache.access_bits b.cache ~space ~va ~pa ~write in
  if r = 0 then begin
    m.Metrics.cache_hits <- m.Metrics.cache_hits + 1;
    Os_core.charge b.os c.Cost_model.cache_hit;
    true
  end
  else begin
    m.Metrics.cache_misses <- m.Metrics.cache_misses + 1;
    (match b.l2 with
    | None -> Os_core.charge b.os c.Cost_model.cache_miss
    | Some l2 ->
        if Data_cache.access_bits l2 ~space:0 ~va ~pa ~write = 0 then begin
          m.Metrics.l2_hits <- m.Metrics.l2_hits + 1;
          Os_core.charge b.os c.Cost_model.l2_hit
        end
        else begin
          m.Metrics.l2_misses <- m.Metrics.l2_misses + 1;
          Os_core.charge b.os c.Cost_model.cache_miss
        end);
    if r land 2 <> 0 then begin
      m.Metrics.cache_writebacks <- m.Metrics.cache_writebacks + 1;
      Os_core.charge b.os c.Cost_model.cache_writeback
    end;
    m.Metrics.cache_synonyms <- Data_cache.synonyms_detected b.cache;
    false
  end

let data_path b kind va e ~space =
  let g = geom b in
  let vpn = Va.vpn_of_va g va in
  let write = kind = Access.Write in
  let pa = (Tlb.pfn_of e lsl g.Geometry.page_shift) lor Va.offset g va in
  Tlb.mark_used b.tlb ~space ~vpn ~write;
  if write then Os_core.mark_dirty b.os ~vpn;
  ignore (cache_access b ~space ~va ~pa ~write)

(* --- construction ------------------------------------------------------- *)

let create ?(tagged = false) (config : Config.t) prot =
  let os = Os_core.create config in
  let probe = os.Os_core.probe in
  let page_shift = config.Config.geom.Geometry.page_shift in
  let cache_of ~probe_as ~org ~size_bytes ~line_bytes ~ways =
    Data_cache.create ~policy:config.Config.policy ~seed:config.Config.seed
      ~probe ~probe_as ~page_shift ~org ~size_bytes ~line_bytes ~ways ()
  in
  let tlb =
    Tlb.create ~policy:config.Config.policy ~seed:config.Config.seed ~probe
      ~sets:config.Config.tlb_sets ~ways:config.Config.tlb_ways ()
  and cache =
    cache_of ~probe_as:Probe.L1_cache ~org:config.Config.cache_org
      ~size_bytes:config.Config.cache_bytes ~line_bytes:config.Config.cache_line
      ~ways:config.Config.cache_ways
  and l2 =
    (* physically indexed and tagged, so immune to address-space
       discipline: flushed only when a frame is released *)
    if config.Config.l2_bytes = 0 then None
    else
      Some
        (cache_of ~probe_as:Probe.L2_cache ~org:Data_cache.Pipt
           ~size_bytes:config.Config.l2_bytes ~line_bytes:config.Config.l2_line
           ~ways:config.Config.l2_ways)
  and prot = prot os in
  (* the hook is built once and reused on every page fault: a closure per
     fault would break the zero-allocation paging path *)
  let rec b =
    { os; tlb; cache; l2; tagged; prot; evict_hook = (fun v -> evict b v) }
  in
  b
