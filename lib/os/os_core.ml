open Sasos_util
open Sasos_addr
open Sasos_hw
open Sasos_mem

(* The protection database: attachments, overrides and override counts
   keyed on {!Flat_tab} int lanes, so the ground-truth [rights] probe
   (override, then segment binary search, then attachment) touches only
   int arrays and never allocates.  Three auxiliary indexes replace the
   O(#domains) scans that would be catastrophic at million-domain scale
   geometries:
     [seg_doms]    seg id -> pds holding an attachment or any override
                   inside the segment (candidates for
                   [domains_with_rights]);
     [unit_over]   protection unit -> number of live-domain overrides
                   (O(1) [page_has_override]);
     [dom_live]    created-and-not-destroyed pds, because only created
                   domains hold rights.
   A tuple-keyed Hashtbl model of the same truth lives under test/ and is
   QCheck-lockstepped against this one op by op (test/test_os_store.ml). *)

type store = {
  f_attachments : Flat_tab.t; (* k1 = pd, k2 = seg id -> rights *)
  f_overrides : Flat_tab.t; (* k1 = pd, k2 = prot unit -> rights *)
  f_override_counts : Flat_tab.t; (* k1 = pd, k2 = seg id -> count *)
  f_unit_over : Flat_tab.t; (* prot unit (split lanes) -> live count *)
  f_seg_doms : (int, int list) Hashtbl.t;
  f_dom_live : Flat_tab.t; (* pd -> 1 *)
}

type t = {
  config : Config.t;
  geom : Geometry.t;
  cost : Cost_model.t;
  mutable metrics : Metrics.t;
  segments : Segment_table.t;
  frames : Frame_allocator.t;
  ipt : Inverted_page_table.t;
  disk : Backing_store.t;
  store : store;
  resident_fifo : Int_queue.t;
  mutable domains : Pd.t list;
  mutable next_pd : int;
  mutable current : Pd.t;
  rng : Prng.t;
  probe : Probe.t;
}

let create (config : Config.t) =
  {
    config;
    geom = config.Config.geom;
    cost = config.Config.cost;
    metrics = Metrics.create ();
    segments = Segment_table.create config.Config.geom;
    frames = Frame_allocator.create ~frames:config.Config.frames;
    ipt = Inverted_page_table.create ();
    disk = Backing_store.create ();
    (* every table starts small and grows on demand: a machine build pays
       for what its run stores, not for a guess at it. No iteration order
       of these tables reaches output (destroy_domain folds only to
       collect the keys it removes). *)
    store =
      {
        f_attachments = Flat_tab.create ();
        f_overrides = Flat_tab.create ();
        f_override_counts = Flat_tab.create ();
        f_unit_over = Flat_tab.create ();
        f_seg_doms = Hashtbl.create 8;
        f_dom_live = Flat_tab.create ();
      };
    resident_fifo = Int_queue.create ();
    domains = [];
    next_pd = 1;
    current = Pd.kernel;
    rng = Prng.create ~seed:config.Config.seed;
    probe = Probe.create ();
  }

(* Protection-unit keys split across Flat_tab's two lanes: units reach
   va lsr prot_shift ~ 2^49, beyond one non-negative 30-bit lane. *)
let unit_k1 u = u land 0x3FFF_FFFF
let unit_k2 u = u lsr 30

let live s pd = Flat_tab.mem s.f_dom_live ~k1:pd ~k2:0

let sd_add s sid pd =
  let cur =
    match Hashtbl.find_opt s.f_seg_doms sid with Some l -> l | None -> []
  in
  if not (List.mem pd cur) then Hashtbl.replace s.f_seg_doms sid (pd :: cur)

(* Drop pd from the segment's candidate list iff it no longer holds an
   attachment or any override count there. *)
let sd_drop_if_orphan s sid pd =
  if
    Flat_tab.find s.f_attachments ~k1:pd ~k2:sid < 0
    && Flat_tab.find s.f_override_counts ~k1:pd ~k2:sid < 0
  then
    match Hashtbl.find_opt s.f_seg_doms sid with
    | None -> ()
    | Some l -> (
        match List.filter (fun p -> p <> pd) l with
        | [] -> Hashtbl.remove s.f_seg_doms sid
        | l' -> Hashtbl.replace s.f_seg_doms sid l')

let unit_over_bump s u delta =
  let k1 = unit_k1 u and k2 = unit_k2 u in
  let c = Flat_tab.find s.f_unit_over ~k1 ~k2 in
  let c = (if c < 0 then 0 else c) + delta in
  if c <= 0 then Flat_tab.remove s.f_unit_over ~k1 ~k2
  else Flat_tab.replace s.f_unit_over ~k1 ~k2 ~v:c

(* Redirect this OS instance's counters onto [m] (the smp layer shares
   one record across all replica cores so replicated kernel work — the
   IPI handlers running the same purge on every core — lands in one
   aggregate). Charging paths read the field on every use, so the switch
   takes effect immediately. *)
let share_metrics t m = t.metrics <- m

let new_domain t =
  let pd = Pd.of_int t.next_pd in
  t.next_pd <- t.next_pd + 1;
  t.domains <- pd :: t.domains;
  Flat_tab.replace t.store.f_dom_live ~k1:(Pd.to_int pd) ~k2:0 ~v:1;
  pd

let domain_list t = List.rev t.domains

let destroy_domain t pd =
  if Pd.equal t.current pd then
    invalid_arg "Os_core.destroy_domain: domain is running";
  t.domains <- List.filter (fun d -> not (Pd.equal d pd)) t.domains;
  let i = Pd.to_int pd in
  let s = t.store in
  let was_live = live s i in
  let collect tab =
    Flat_tab.fold tab (fun k1 k2 _ acc -> if k1 = i then k2 :: acc else acc) []
  in
  let att_segs = collect s.f_attachments in
  let over_units = collect s.f_overrides in
  let count_segs = collect s.f_override_counts in
  List.iter (fun sid -> Flat_tab.remove s.f_attachments ~k1:i ~k2:sid) att_segs;
  List.iter
    (fun u ->
      Flat_tab.remove s.f_overrides ~k1:i ~k2:u;
      if was_live then unit_over_bump s u (-1))
    over_units;
  List.iter
    (fun sid -> Flat_tab.remove s.f_override_counts ~k1:i ~k2:sid)
    count_segs;
  Flat_tab.remove s.f_dom_live ~k1:i ~k2:0;
  List.iter
    (fun sid -> sd_drop_if_orphan s sid i)
    (List.sort_uniq compare (att_segs @ count_segs))

let prot_unit t va = va lsr t.geom.Geometry.prot_shift

let rights t pd va =
  let s = t.store in
  let pdi = Pd.to_int pd in
  let o = Flat_tab.find s.f_overrides ~k1:pdi ~k2:(prot_unit t va) in
  if o >= 0 then Rights.of_int o
  else
    let sid = Segment_table.find_id_by_va t.segments va in
    if sid < 0 then Rights.none
    else
      let a = Flat_tab.find s.f_attachments ~k1:pdi ~k2:sid in
      if a >= 0 then Rights.of_int a else Rights.none

let set_attachment t pd seg r =
  let sid = Segment.id_to_int seg.Segment.id in
  let pdi = Pd.to_int pd in
  Flat_tab.replace t.store.f_attachments ~k1:pdi ~k2:sid ~v:(Rights.to_int r);
  sd_add t.store sid pdi

let remove_attachment t pd (seg : Segment.t) =
  let sid = Segment.id_to_int seg.Segment.id in
  let pdi = Pd.to_int pd in
  let shift = t.geom.Geometry.prot_shift in
  let lo = seg.Segment.base lsr shift in
  let hi = (Segment.limit seg - 1) lsr shift in
  let s = t.store in
  Flat_tab.remove s.f_attachments ~k1:pdi ~k2:sid;
  let was_live = live s pdi in
  (* per-page overrides within the segment die with the attachment *)
  for unit = lo to hi do
    if Flat_tab.find s.f_overrides ~k1:pdi ~k2:unit >= 0 then begin
      Flat_tab.remove s.f_overrides ~k1:pdi ~k2:unit;
      if was_live then unit_over_bump s unit (-1)
    end
  done;
  Flat_tab.remove s.f_override_counts ~k1:pdi ~k2:sid;
  sd_drop_if_orphan s sid pdi

let attachment t pd (seg : Segment.t) =
  let sid = Segment.id_to_int seg.Segment.id in
  let v = Flat_tab.find t.store.f_attachments ~k1:(Pd.to_int pd) ~k2:sid in
  if v < 0 then None else Some (Rights.of_int v)

let narrows t pd seg r =
  match attachment t pd seg with
  | Some old -> not (Rights.subset old r)
  | None -> false

let bump_count t pd va delta =
  match Segment_table.find_id_by_va t.segments va with
  | -1 -> ()
  | sid ->
      let s = t.store in
      let pdi = Pd.to_int pd in
      let c = Flat_tab.find s.f_override_counts ~k1:pdi ~k2:sid in
      let c = (if c < 0 then 0 else c) + delta in
      if c <= 0 then begin
        Flat_tab.remove s.f_override_counts ~k1:pdi ~k2:sid;
        sd_drop_if_orphan s sid pdi
      end
      else begin
        Flat_tab.replace s.f_override_counts ~k1:pdi ~k2:sid ~v:c;
        sd_add s sid pdi
      end

let set_override t pd va r =
  let s = t.store in
  let u = prot_unit t va in
  let pdi = Pd.to_int pd in
  if Flat_tab.find s.f_overrides ~k1:pdi ~k2:u < 0 then begin
    bump_count t pd va 1;
    if live s pdi then unit_over_bump s u 1
  end;
  Flat_tab.replace s.f_overrides ~k1:pdi ~k2:u ~v:(Rights.to_int r)

let clear_override t pd va =
  let s = t.store in
  let u = prot_unit t va in
  let pdi = Pd.to_int pd in
  if Flat_tab.find s.f_overrides ~k1:pdi ~k2:u >= 0 then begin
    Flat_tab.remove s.f_overrides ~k1:pdi ~k2:u;
    bump_count t pd va (-1);
    if live s pdi then unit_over_bump s u (-1)
  end

let has_overrides t pd (seg : Segment.t) =
  let sid = Segment.id_to_int seg.Segment.id in
  Flat_tab.find t.store.f_override_counts ~k1:(Pd.to_int pd) ~k2:sid >= 0

let override_units_in_segment t pd (seg : Segment.t) =
  if not (has_overrides t pd seg) then []
  else begin
    let shift = t.geom.Geometry.prot_shift in
    let lo = seg.Segment.base lsr shift in
    let hi = (Segment.limit seg - 1) lsr shift in
    let pdi = Pd.to_int pd in
    let units = ref [] in
    for unit = hi downto lo do
      if Flat_tab.find t.store.f_overrides ~k1:pdi ~k2:unit >= 0 then
        units := unit :: !units
    done;
    !units
  end

let protect_segment t pd seg r =
  let units = override_units_in_segment t pd seg in
  List.iter
    (fun u -> clear_override t pd (u lsl t.geom.Geometry.prot_shift))
    units;
  set_attachment t pd seg r;
  units

let unit_overrides s unit =
  Flat_tab.find s.f_unit_over ~k1:(unit_k1 unit) ~k2:(unit_k2 unit)

let page_has_override t va = unit_overrides t.store (prot_unit t va) > 0

let domains_with_rights t va =
  let s = t.store in
  let keep pdi =
    if not (live s pdi) then None
    else
      let pd = Pd.of_int pdi in
      let r = rights t pd va in
      if Rights.equal r Rights.none then None else Some (pd, r)
  in
  match Segment_table.find_id_by_va t.segments va with
  | -1 ->
      (* outside every live segment only overrides can grant; the per-unit
         live count tells us whether any exist at all *)
      if unit_overrides s (prot_unit t va) <= 0 then []
      else List.filter_map (fun pd -> keep (Pd.to_int pd)) (domain_list t)
  | sid ->
      let pds =
        match Hashtbl.find_opt s.f_seg_doms sid with Some l -> l | None -> []
      in
      (* candidate lists are unordered; the documented order is creation
         order, which is ascending pd since ids are monotonic *)
      List.filter_map keep (List.sort_uniq compare pds)

let protect_all t va r =
  match Segment_table.find_by_va t.segments va with
  | None -> ()
  | Some seg ->
      List.iter
        (fun pd ->
          match attachment t pd seg with
          | Some _ -> set_override t pd va r
          | None ->
              (* an override may exist without an attachment *)
              if not (Rights.equal (rights t pd va) Rights.none) then
                set_override t pd va r)
        (domain_list t)

let charge t cycles = t.metrics.Metrics.cycles <- t.metrics.Metrics.cycles + cycles

let kernel_entry t =
  t.metrics.Metrics.kernel_entries <- t.metrics.Metrics.kernel_entries + 1;
  charge t t.cost.Cost_model.kernel_trap

let note_resident t vpn = Int_queue.push t.resident_fifo vpn

let unmap t ~vpn ~write_back =
  let bits = Inverted_page_table.unmap_bits t.ipt ~vpn in
  if bits >= 0 then begin
    if write_back && Inverted_page_table.bits_dirty bits then begin
      let bytes = Geometry.page_size t.geom in
      Backing_store.write t.disk ~vpn ~bytes_used:bytes;
      t.metrics.Metrics.page_outs <- t.metrics.Metrics.page_outs + 1;
      charge t t.cost.Cost_model.page_out
    end;
    Frame_allocator.free t.frames (Inverted_page_table.bits_pfn bits)
  end

let rec evict_oldest t ~before_evict =
  let victim = Int_queue.pop t.resident_fifo in
  if victim < 0 then failwith "Os_core: no resident page to evict"
  else if
    (* the FIFO may contain stale entries for pages already unmapped;
       residency is exactly IPT membership *)
    Inverted_page_table.is_mapped t.ipt ~vpn:victim
  then begin
    before_evict victim;
    unmap t ~vpn:victim ~write_back:true
  end
  else evict_oldest t ~before_evict

(* Top-level recursion, not a local [let rec]: a closure per page fault
   would defeat the zero-allocation eviction path. *)
let rec acquire_frame t ~before_evict =
  let f = Frame_allocator.alloc_int t.frames in
  if f >= 0 then f
  else begin
    evict_oldest t ~before_evict;
    acquire_frame t ~before_evict
  end

let ensure_mapped t ~vpn ~before_evict =
  let bits = Inverted_page_table.find_bits t.ipt ~vpn in
  if bits >= 0 then Inverted_page_table.bits_pfn bits
  else begin
    t.metrics.Metrics.page_faults <- t.metrics.Metrics.page_faults + 1;
    let pfn = acquire_frame t ~before_evict in
    (* page-in from disk if a copy exists; else zero-fill (cheap) *)
    if Backing_store.resident t.disk ~vpn then begin
      t.metrics.Metrics.page_ins <- t.metrics.Metrics.page_ins + 1;
      charge t t.cost.Cost_model.page_in
    end;
    Inverted_page_table.map t.ipt ~vpn ~pfn;
    note_resident t vpn;
    pfn
  end

let is_resident t ~vpn = Inverted_page_table.is_mapped t.ipt ~vpn

let pfn_int t ~vpn =
  let bits = Inverted_page_table.find_bits t.ipt ~vpn in
  if bits < 0 then -1 else Inverted_page_table.bits_pfn bits

let pfn_of t ~vpn =
  let pfn = pfn_int t ~vpn in
  if pfn < 0 then None else Some pfn

let pa_of t va =
  let vpn = Va.vpn_of_va t.geom va in
  Option.map
    (fun pfn -> (pfn lsl t.geom.Geometry.page_shift) lor Va.offset t.geom va)
    (pfn_of t ~vpn)

let pa_int t va =
  let vpn = Va.vpn_of_va t.geom va in
  let bits = Inverted_page_table.find_bits t.ipt ~vpn in
  if bits < 0 then -1
  else
    (Inverted_page_table.bits_pfn bits lsl t.geom.Geometry.page_shift)
    lor Va.offset t.geom va

let mark_dirty t ~vpn = Inverted_page_table.set_dirty t.ipt ~vpn
