open Sasos
open Sasos.Os

let mk () = Os_core.create Config.default

let test_rights_resolution () =
  let os = mk () in
  let d1 = Os_core.new_domain os and d2 = Os_core.new_domain os in
  let seg = Segment_table.allocate os.Os_core.segments ~pages:4 () in
  let va = seg.Segment.base in
  Alcotest.(check bool) "default none" true
    (Rights.equal (Os_core.rights os d1 va) Rights.none);
  Os_core.set_attachment os d1 seg Rights.rw;
  Alcotest.(check bool) "attachment rights" true
    (Rights.equal (Os_core.rights os d1 va) Rights.rw);
  Alcotest.(check bool) "other domain still none" true
    (Rights.equal (Os_core.rights os d2 va) Rights.none);
  (* override takes precedence, including a deny override *)
  Os_core.set_override os d1 va Rights.r;
  Alcotest.(check bool) "override" true
    (Rights.equal (Os_core.rights os d1 va) Rights.r);
  Os_core.set_override os d1 va Rights.none;
  Alcotest.(check bool) "deny override" true
    (Rights.equal (Os_core.rights os d1 va) Rights.none);
  Os_core.clear_override os d1 va;
  Alcotest.(check bool) "back to attachment" true
    (Rights.equal (Os_core.rights os d1 va) Rights.rw)

let test_rights_outside_segments () =
  let os = mk () in
  let d = Os_core.new_domain os in
  Alcotest.(check bool) "unallocated va" true
    (Rights.equal (Os_core.rights os d 0x123) Rights.none)

let test_detach_clears_overrides () =
  let os = mk () in
  let d = Os_core.new_domain os in
  let seg = Segment_table.allocate os.Os_core.segments ~pages:4 () in
  Os_core.set_attachment os d seg Rights.rw;
  Os_core.set_override os d (Segment.page_va seg 2) Rights.none;
  Alcotest.(check bool) "has overrides" true (Os_core.has_overrides os d seg);
  Os_core.remove_attachment os d seg;
  Alcotest.(check bool) "overrides cleared" false (Os_core.has_overrides os d seg);
  Alcotest.(check bool) "rights none" true
    (Rights.equal (Os_core.rights os d (Segment.page_va seg 2)) Rights.none)

let test_override_units () =
  let os = mk () in
  let d = Os_core.new_domain os in
  let seg = Segment_table.allocate os.Os_core.segments ~pages:8 () in
  Os_core.set_attachment os d seg Rights.rw;
  Os_core.set_override os d (Segment.page_va seg 1) Rights.r;
  Os_core.set_override os d (Segment.page_va seg 5) Rights.r;
  (* setting the same unit twice must not double-count *)
  Os_core.set_override os d (Segment.page_va seg 5) Rights.none;
  let units = Os_core.override_units_in_segment os d seg in
  Alcotest.(check int) "two units" 2 (List.length units)

let test_domains_with_rights () =
  let os = mk () in
  let d1 = Os_core.new_domain os and d2 = Os_core.new_domain os in
  let d3 = Os_core.new_domain os in
  let seg = Segment_table.allocate os.Os_core.segments ~pages:2 () in
  let va = seg.Segment.base in
  Os_core.set_attachment os d1 seg Rights.rw;
  Os_core.set_attachment os d2 seg Rights.r;
  Os_core.set_attachment os d3 seg Rights.rw;
  Os_core.set_override os d3 va Rights.none;
  let holders = Os_core.domains_with_rights os va in
  Alcotest.(check int) "two holders" 2 (List.length holders);
  Alcotest.(check bool) "d1 rw" true
    (List.exists (fun (d, r) -> Pd.equal d d1 && Rights.equal r Rights.rw) holders);
  Alcotest.(check bool) "d3 excluded by deny override" true
    (not (List.exists (fun (d, _) -> Pd.equal d d3) holders))

let test_ensure_mapped_and_eviction () =
  let config = Config.v ~frames:2 () in
  let os = Os_core.create config in
  let evicted = ref [] in
  let before_evict v = evicted := v :: !evicted in
  let f1 = Os_core.ensure_mapped os ~vpn:1 ~before_evict in
  let f2 = Os_core.ensure_mapped os ~vpn:2 ~before_evict in
  Alcotest.(check bool) "distinct frames" true (f1 <> f2);
  (* memory full: mapping a third page evicts the oldest (vpn 1) *)
  let _ = Os_core.ensure_mapped os ~vpn:3 ~before_evict in
  Alcotest.(check (list int)) "evicted oldest" [ 1 ] !evicted;
  Alcotest.(check bool) "vpn1 unmapped" false (Os_core.is_resident os ~vpn:1);
  Alcotest.(check bool) "vpn2 resident" true (Os_core.is_resident os ~vpn:2);
  (* re-mapping the evicted page counts a fault, not a disk read (clean) *)
  let faults_before = os.Os_core.metrics.Hw.Metrics.page_faults in
  let _ = Os_core.ensure_mapped os ~vpn:1 ~before_evict in
  Alcotest.(check int) "fault counted"
    (faults_before + 1)
    os.Os_core.metrics.Hw.Metrics.page_faults

let test_dirty_writeback_to_disk () =
  let config = Config.v ~frames:1 () in
  let os = Os_core.create config in
  let noop _ = () in
  let _ = Os_core.ensure_mapped os ~vpn:7 ~before_evict:noop in
  Os_core.mark_dirty os ~vpn:7;
  let _ = Os_core.ensure_mapped os ~vpn:8 ~before_evict:noop in
  Alcotest.(check bool) "dirty page written to disk" true
    (Mem.Backing_store.resident os.Os_core.disk ~vpn:7);
  Alcotest.(check int) "page_out counted" 1
    os.Os_core.metrics.Hw.Metrics.page_outs;
  (* paging it back in reads the disk *)
  let _ = Os_core.ensure_mapped os ~vpn:7 ~before_evict:noop in
  Alcotest.(check int) "page_in counted" 1
    os.Os_core.metrics.Hw.Metrics.page_ins

let test_pa_of () =
  let os = mk () in
  let noop _ = () in
  let pfn = Os_core.ensure_mapped os ~vpn:5 ~before_evict:noop in
  Alcotest.(check (option int)) "pa_of"
    (Some ((pfn lsl 12) lor 0xabc))
    (Os_core.pa_of os ((5 lsl 12) lor 0xabc));
  Alcotest.(check (option int)) "unmapped" None (Os_core.pa_of os (99 lsl 12))

let test_kernel_entry_cost () =
  let os = mk () in
  Os_core.kernel_entry os;
  Alcotest.(check int) "kernel entries" 1
    os.Os_core.metrics.Hw.Metrics.kernel_entries;
  Alcotest.(check int) "trap cycles"
    Config.default.Config.cost.Hw.Cost_model.kernel_trap
    os.Os_core.metrics.Hw.Metrics.cycles

let cases =
  [
    ("rights resolution", test_rights_resolution);
    ("rights outside segments", test_rights_outside_segments);
    ("detach clears overrides", test_detach_clears_overrides);
    ("override unit tracking", test_override_units);
    ("domains_with_rights", test_domains_with_rights);
    ("ensure_mapped + eviction", test_ensure_mapped_and_eviction);
    ("dirty writeback to disk", test_dirty_writeback_to_disk);
    ("pa_of", test_pa_of);
    ("kernel entry cost", test_kernel_entry_cost);
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f) cases
