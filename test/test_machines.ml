open Sasos
open Sasos.Os

let variants =
  [
    ("plb", Machines.Plb);
    ("page-group", Machines.Page_group);
    ("pk", Machines.Pk);
    ("conv-asid", Machines.Conv_asid);
    ("conv-flush", Machines.Conv_flush);
  ]

let mk v = Machines.make v Config.default

(* a standard two-domain, one-shared-segment setup *)
let setup sys =
  let d1 = System_ops.new_domain sys in
  let d2 = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:8 () in
  (d1, d2, seg)

let for_all_machines name f =
  List.map
    (fun (label, v) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name label) `Quick (fun () ->
          f (mk v)))
    variants

let outcome = Alcotest.testable Access.pp_outcome Access.outcome_equal

let test_basic_protection sys =
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.switch_domain sys d1;
  Alcotest.check outcome "attached rw: read ok" Access.Ok
    (System_ops.read sys (Segment.page_va seg 0));
  Alcotest.check outcome "attached rw: write ok" Access.Ok
    (System_ops.write sys (Segment.page_va seg 0));
  System_ops.switch_domain sys d2;
  Alcotest.check outcome "unattached domain faults" Access.Protection_fault
    (System_ops.read sys (Segment.page_va seg 0))

let test_read_only_attachment sys =
  let d1, _, seg = setup sys in
  System_ops.attach sys d1 seg Rights.r;
  System_ops.switch_domain sys d1;
  Alcotest.check outcome "read ok" Access.Ok
    (System_ops.read sys (Segment.page_va seg 1));
  Alcotest.check outcome "write faults" Access.Protection_fault
    (System_ops.write sys (Segment.page_va seg 1))

let test_grant_is_per_domain sys =
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  let va = Segment.page_va seg 3 in
  (* warm both domains *)
  System_ops.switch_domain sys d1;
  Alcotest.check outcome "d1 ok" Access.Ok (System_ops.write sys va);
  System_ops.switch_domain sys d2;
  Alcotest.check outcome "d2 ok" Access.Ok (System_ops.write sys va);
  (* revoke write from d2 only *)
  System_ops.grant sys d2 va Rights.r;
  Alcotest.check outcome "d2 write now faults" Access.Protection_fault
    (System_ops.write sys va);
  Alcotest.check outcome "d2 read still ok" Access.Ok (System_ops.read sys va);
  System_ops.switch_domain sys d1;
  Alcotest.check outcome "d1 unaffected" Access.Ok (System_ops.write sys va)

let test_detach_revokes sys =
  let d1, _, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.switch_domain sys d1;
  Alcotest.check outcome "before detach" Access.Ok
    (System_ops.write sys (Segment.page_va seg 0));
  System_ops.detach sys d1 seg;
  Alcotest.check outcome "after detach" Access.Protection_fault
    (System_ops.write sys (Segment.page_va seg 0))

let test_protect_all sys =
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  let va = Segment.page_va seg 2 in
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys va);
  System_ops.switch_domain sys d2;
  ignore (System_ops.write sys va);
  System_ops.protect_all sys va Rights.r;
  Alcotest.check outcome "d2 write faults" Access.Protection_fault
    (System_ops.write sys va);
  System_ops.switch_domain sys d1;
  Alcotest.check outcome "d1 write faults" Access.Protection_fault
    (System_ops.write sys va);
  Alcotest.check outcome "d1 read ok" Access.Ok (System_ops.read sys va);
  (* other pages unaffected *)
  Alcotest.check outcome "other page ok" Access.Ok
    (System_ops.write sys (Segment.page_va seg 3))

let test_protect_segment sys =
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  System_ops.switch_domain sys d1;
  for i = 0 to 7 do
    ignore (System_ops.write sys (Segment.page_va seg i))
  done;
  System_ops.protect_segment sys d1 seg Rights.r;
  Alcotest.check outcome "d1 writes fault" Access.Protection_fault
    (System_ops.write sys (Segment.page_va seg 5));
  Alcotest.check outcome "d1 reads ok" Access.Ok
    (System_ops.read sys (Segment.page_va seg 5));
  System_ops.switch_domain sys d2;
  Alcotest.check outcome "d2 writes unaffected" Access.Ok
    (System_ops.write sys (Segment.page_va seg 5))

let test_unmap_then_touch sys =
  let d1, _, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.switch_domain sys d1;
  let va = Segment.page_va seg 1 in
  ignore (System_ops.write sys va);
  let vpn = Va.vpn_of_va Geometry.default va in
  System_ops.unmap_page sys vpn;
  (* protection is intact, so the touch page-faults back in and succeeds *)
  let os = System_ops.os sys in
  Alcotest.(check bool) "unmapped" false (Os_core.is_resident os ~vpn);
  Alcotest.check outcome "touch remaps" Access.Ok (System_ops.read sys va);
  Alcotest.(check bool) "resident again" true (Os_core.is_resident os ~vpn);
  (* the dirty page went to disk at unmap and came back *)
  Alcotest.(check bool) "disk copy exists" true
    (Mem.Backing_store.resident os.Os_core.disk ~vpn)

let test_destroy_segment sys =
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.r;
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys (Segment.page_va seg 0));
  let va = Segment.page_va seg 0 in
  System_ops.destroy_segment sys seg;
  Alcotest.check outcome "destroyed segment faults" Access.Protection_fault
    (System_ops.read sys va)

let test_never_over_allows sys =
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.r;
  let probes =
    List.concat_map
      (fun d -> List.map (fun i -> (d, Segment.page_va seg i)) [ 0; 3; 7 ])
      [ d1; d2 ]
  in
  let check_point msg =
    Alcotest.(check bool) msg false (System_ops.hw_over_allows sys probes)
  in
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys (Segment.page_va seg 0));
  check_point "after d1 write";
  System_ops.switch_domain sys d2;
  ignore (System_ops.read sys (Segment.page_va seg 0));
  check_point "after d2 read";
  System_ops.grant sys d2 (Segment.page_va seg 0) Rights.none;
  check_point "after revoke";
  System_ops.protect_segment sys d1 seg Rights.r;
  check_point "after segment restrict";
  System_ops.detach sys d2 seg;
  check_point "after detach";
  System_ops.protect_all sys (Segment.page_va seg 3) Rights.none;
  check_point "after protect_all none"

let test_switch_metrics sys =
  let d1, d2, _ = setup sys in
  let m = System_ops.metrics sys in
  let before = m.Metrics.domain_switches in
  System_ops.switch_domain sys d1;
  System_ops.switch_domain sys d2;
  Alcotest.(check int) "switches counted" (before + 2) m.Metrics.domain_switches

let test_access_metrics sys =
  let d1, _, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.switch_domain sys d1;
  let m = System_ops.metrics sys in
  ignore (System_ops.read sys (Segment.page_va seg 0));
  ignore (System_ops.write sys (Segment.page_va seg 0));
  Alcotest.(check int) "accesses" 2 m.Metrics.accesses;
  Alcotest.(check int) "reads" 1 m.Metrics.reads;
  Alcotest.(check int) "writes" 1 m.Metrics.writes;
  Alcotest.(check bool) "cycles charged" true (m.Metrics.cycles > 0)

(* --- model-specific behaviours --------------------------------------- *)

let test_plb_switch_is_one_register () =
  let sys = mk Machines.Plb in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  System_ops.switch_domain sys d1;
  for i = 0 to 7 do
    ignore (System_ops.write sys (Segment.page_va seg i))
  done;
  let m = System_ops.metrics sys in
  let before = Metrics.copy m in
  System_ops.switch_domain sys d2;
  let d = Metrics.diff m before in
  let cost = Config.default.Config.cost in
  Alcotest.(check int) "switch cost = base + register write"
    (cost.Hw.Cost_model.domain_switch + cost.Hw.Cost_model.pd_id_write)
    d.Metrics.cycles;
  Alcotest.(check int) "no entries purged" 0 d.Metrics.entries_purged

let test_pg_switch_purges_pgc () =
  let sys = mk Machines.Page_group in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys (Segment.page_va seg 0));
  let m = System_ops.metrics sys in
  let before = Metrics.copy m in
  System_ops.switch_domain sys d2;
  let d = Metrics.diff m before in
  Alcotest.(check bool) "pg-cache purged" true (d.Metrics.entries_purged >= 1)

let test_pg_shared_page_single_tlb_entry () =
  let config = Config.default in
  let t = Machines.Pg_machine.create config in
  let sys =
    System_intf.Packed
      ( (module Machines.Pg_machine : System_intf.SYSTEM
          with type t = Machines.Pg_machine.t),
        t )
  in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  let va = Segment.page_va seg 0 in
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys va);
  System_ops.switch_domain sys d2;
  ignore (System_ops.write sys va);
  Alcotest.(check int) "one protection entry for shared page" 1
    (System_ops.resident_prot_entries_for sys va);
  (* both domains share the segment's home group *)
  Alcotest.(check bool) "nonzero aid" true (Machines.Pg_machine.aid_of_va t va > 1)

let test_plb_shared_page_duplicates () =
  let sys = mk Machines.Plb in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  let va = Segment.page_va seg 0 in
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys va);
  System_ops.switch_domain sys d2;
  ignore (System_ops.write sys va);
  Alcotest.(check int) "two PLB entries for shared page" 2
    (System_ops.resident_prot_entries_for sys va)

let test_variants_match_registry () =
  (* the local list above must track Machines.all (drift guard) *)
  Alcotest.(check (list string)) "machine registry"
    (List.map fst Machines.all) (List.map fst variants)

let test_pk_switch_is_register_swap () =
  let sys = mk Machines.Pk in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  System_ops.switch_domain sys d1;
  for i = 0 to 7 do
    ignore (System_ops.write sys (Segment.page_va seg i))
  done;
  let m = System_ops.metrics sys in
  let before = Metrics.copy m in
  System_ops.switch_domain sys d2;
  let d = Metrics.diff m before in
  let cost = Config.default.Config.cost in
  Alcotest.(check int) "switch cost = base + key-register swap"
    (cost.Hw.Cost_model.domain_switch + cost.Hw.Cost_model.key_reg_write)
    d.Metrics.cycles;
  Alcotest.(check int) "no entries purged" 0 d.Metrics.entries_purged;
  Alcotest.(check int) "one register write" 1 d.Metrics.key_reg_writes;
  (* the warm entries still serve the incoming domain: no misses *)
  let before = Metrics.copy m in
  ignore (System_ops.read sys (Segment.page_va seg 0));
  let d = Metrics.diff m before in
  Alcotest.(check int) "warm TLB after switch" 0 d.Metrics.tlb_misses

let test_pk_shared_page_single_tlb_entry () =
  let config = Config.default in
  let t = Machines.Pk_machine.create config in
  let sys =
    System_intf.Packed
      ( (module Machines.Pk_machine : System_intf.SYSTEM
          with type t = Machines.Pk_machine.t),
        t )
  in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.r;
  let va = Segment.page_va seg 0 in
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys va);
  System_ops.switch_domain sys d2;
  ignore (System_ops.read sys va);
  Alcotest.(check int) "one TLB entry for shared page" 1
    (System_ops.resident_prot_entries_for sys va);
  (* both domains resolve through the same key; per-domain rights live in
     the key registers, not in duplicated entries *)
  (match Machines.Pk_machine.key_of_va t va with
  | None -> Alcotest.fail "shared page has no key"
  | Some k ->
      Alcotest.(check bool) "key is not the trap key" true
        (k <> Machines.Pk_machine.trap_key));
  Alcotest.(check bool) "d2 write still blocked" true
    (Access.outcome_equal (System_ops.write sys va) Access.Protection_fault)

let test_conv_asid_duplicates_tlb () =
  let sys = mk Machines.Conv_asid in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  let va = Segment.page_va seg 0 in
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys va);
  System_ops.switch_domain sys d2;
  ignore (System_ops.write sys va);
  Alcotest.(check int) "two TLB entries for shared page" 2
    (System_ops.resident_prot_entries_for sys va)

let test_conv_flush_purges_on_switch () =
  let sys = mk Machines.Conv_flush in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys (Segment.page_va seg 0));
  let m = System_ops.metrics sys in
  let before = Metrics.copy m in
  System_ops.switch_domain sys d2;
  let d = Metrics.diff m before in
  Alcotest.(check bool) "TLB purged" true (d.Metrics.entries_purged >= 1);
  Alcotest.(check bool) "cache flushed" true (d.Metrics.cache_lines_flushed >= 1)

let test_pg_write_disable_mixed_attach () =
  (* d1 attaches rw, d2 attaches r: one group, d2 carries the D bit *)
  let sys = mk Machines.Page_group in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.r;
  let va = Segment.page_va seg 0 in
  System_ops.switch_domain sys d1;
  Alcotest.check outcome "d1 writes" Access.Ok (System_ops.write sys va);
  System_ops.switch_domain sys d2;
  Alcotest.check outcome "d2 reads" Access.Ok (System_ops.read sys va);
  Alcotest.check outcome "d2 write blocked by D bit" Access.Protection_fault
    (System_ops.write sys va);
  (* this must NOT have required a regroup: same group serves both *)
  let m = System_ops.metrics sys in
  Alcotest.(check int) "no regroups" 0 m.Metrics.regroups

let test_pg_inexpressible_pattern_thrashes () =
  (* per-domain write to the same page alternates the page between groups *)
  let config = Config.default in
  let t = Machines.Pg_machine.create config in
  let sys =
    System_intf.Packed
      ( (module Machines.Pg_machine : System_intf.SYSTEM
          with type t = Machines.Pg_machine.t),
        t )
  in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.none;
  System_ops.attach sys d2 seg Rights.none;
  let va = Segment.page_va seg 0 in
  (* exclusive write lock alternates: d1 rw / d2 none, then the reverse *)
  System_ops.grant sys d1 va Rights.rw;
  System_ops.grant sys d2 va Rights.none;
  System_ops.switch_domain sys d1;
  Alcotest.check outcome "d1 holds lock" Access.Ok (System_ops.write sys va);
  let m = System_ops.metrics sys in
  let regroups0 = m.Metrics.regroups in
  System_ops.grant sys d1 va Rights.none;
  System_ops.grant sys d2 va Rights.rw;
  System_ops.switch_domain sys d2;
  Alcotest.check outcome "d2 holds lock" Access.Ok (System_ops.write sys va);
  Alcotest.(check bool) "page regrouped on lock transfer" true
    (m.Metrics.regroups > regroups0)

let test_plb_coarse_grain_refill () =
  (* multi-size PLB: a uniform aligned segment is covered by one entry *)
  let config = Config.v ~plb_shifts:[ 12; 22 ] () in
  let sys = Machines.make Machines.Plb config in
  let d = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~align_shift:22 ~pages:1024 () in
  System_ops.attach sys d seg Rights.rw;
  System_ops.switch_domain sys d;
  let m = System_ops.metrics sys in
  ignore (System_ops.read sys (Segment.page_va seg 0));
  let refills0 = m.Metrics.plb_refills in
  Alcotest.(check int) "one refill" 1 refills0;
  (* any other page of the segment is already covered *)
  ignore (System_ops.read sys (Segment.page_va seg 777));
  ignore (System_ops.read sys (Segment.page_va seg 123));
  Alcotest.(check int) "no further refills" refills0 m.Metrics.plb_refills

let test_pg_sequential_penalty () =
  let cost = Hw.Cost_model.v ~pg_sequential_penalty:2 () in
  let config = Config.v ~cost () in
  let sys = Machines.make Machines.Page_group config in
  let d, _, seg = setup sys in
  System_ops.attach sys d seg Rights.rw;
  System_ops.switch_domain sys d;
  ignore (System_ops.read sys (Segment.page_va seg 0));
  let m = System_ops.metrics sys in
  let before = m.Metrics.cycles in
  ignore (System_ops.read sys (Segment.page_va seg 0));
  (* a warm hit costs cache_hit + the serialization penalty *)
  Alcotest.(check int) "penalty charged"
    (before + cost.Hw.Cost_model.cache_hit + 2)
    m.Metrics.cycles

let test_l2_behaviour () =
  (* with a large L2, repeated misses in a small L1 hit the L2; unmapping a
     page flushes its physical lines from both levels *)
  let config =
    Config.v ~cache_bytes:1024 ~l2_bytes:(256 * 1024) ()
  in
  let sys = Machines.make Machines.Plb config in
  let d = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:16 () in
  System_ops.attach sys d seg Rights.rw;
  System_ops.switch_domain sys d;
  (* touch far more lines than the 1KB L1 holds, twice *)
  for round = 1 to 2 do
    ignore round;
    for i = 0 to 15 do
      for off = 0 to 3 do
        ignore
          (System_ops.read sys (Segment.page_va seg i + (off * 1024)))
      done
    done
  done;
  let m = System_ops.metrics sys in
  Alcotest.(check bool) "L1 misses occurred" true (m.Metrics.cache_misses > 40);
  Alcotest.(check bool) "second round hits L2" true (m.Metrics.l2_hits > 0);
  Alcotest.(check int) "L2 fills accounted"
    m.Metrics.cache_misses
    (m.Metrics.l2_hits + m.Metrics.l2_misses);
  (* L2 fill must be cheaper than a memory fill *)
  let cost = Config.default.Config.cost in
  Alcotest.(check bool) "cost model sane" true
    (cost.Hw.Cost_model.l2_hit < cost.Hw.Cost_model.cache_miss);
  (* unmap drops the page from the L2 as well: re-touch misses both *)
  let vpn = Va.vpn_of_va Geometry.default (Segment.page_va seg 0) in
  System_ops.unmap_page sys vpn;
  let l2_misses_before = m.Metrics.l2_misses in
  ignore (System_ops.read sys (Segment.page_va seg 0));
  Alcotest.(check bool) "post-unmap fill goes to memory" true
    (m.Metrics.l2_misses > l2_misses_before)

let test_destroy_domain sys =
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys (Segment.page_va seg 0));
  System_ops.switch_domain sys d2;
  ignore (System_ops.write sys (Segment.page_va seg 0));
  (* destroying d1 (not running) removes its truth and hardware state *)
  System_ops.switch_domain sys d2;
  System_ops.destroy_domain sys d1;
  let os = System_ops.os sys in
  Alcotest.(check bool) "truth gone" true
    (Rights.equal (Os_core.rights os d1 (Segment.page_va seg 0)) Rights.none);
  Alcotest.(check bool) "not listed" false
    (List.exists (fun d -> Pd.equal d d1) (Os_core.domain_list os));
  Alcotest.(check bool) "no over-allow" false
    (System_ops.hw_over_allows sys [ (d1, Segment.page_va seg 0) ]);
  (* the survivor is unaffected *)
  Alcotest.check outcome "d2 still works" Access.Ok
    (System_ops.write sys (Segment.page_va seg 0))

let test_destroy_running_domain_rejected sys =
  let d1, _, _ = setup sys in
  System_ops.switch_domain sys d1;
  Alcotest.(check bool) "rejected" true
    (try
       System_ops.destroy_domain sys d1;
       false
     with Invalid_argument _ -> true)

let test_okamoto_guard () =
  let t = Machines.Plb_machine.create Config.default in
  let sys =
    System_intf.Packed
      ( (module Machines.Plb_machine : System_intf.SYSTEM
          with type t = Machines.Plb_machine.t),
        t )
  in
  let client = System_ops.new_domain sys in
  let data = System_ops.new_segment sys ~name:"data" ~pages:4 () in
  let code = System_ops.new_segment sys ~name:"code" ~pages:2 () in
  let other_code = System_ops.new_segment sys ~name:"other" ~pages:1 () in
  System_ops.attach sys client code Rights.rx;
  System_ops.attach sys client other_code Rights.rx;
  System_ops.attach sys client data Rights.none;
  Machines.Plb_machine.guard_segment t ~data ~code Rights.rw;
  System_ops.switch_domain sys client;
  let va = Segment.page_va data 1 in
  (* no context: the domain's own rights (none) apply *)
  Alcotest.check outcome "no context denies" Access.Protection_fault
    (System_ops.write sys va);
  (* wrong code context denies *)
  Machines.Plb_machine.set_code_context t (Some other_code);
  Alcotest.check outcome "wrong context denies" Access.Protection_fault
    (System_ops.write sys va);
  (* the guarding context grants *)
  Machines.Plb_machine.set_code_context t (Some code);
  Alcotest.check outcome "guarding context allows" Access.Ok
    (System_ops.write sys va);
  Alcotest.(check bool) "guard_rights reports rw" true
    (Rights.equal (Machines.Plb_machine.guard_rights t va) Rights.rw);
  (* second access hits the context-tagged PLB entry: no new kernel entry *)
  let m = Machines.Plb_machine.metrics t in
  let kernel_before = m.Metrics.kernel_entries in
  Alcotest.check outcome "warm hit" Access.Ok (System_ops.write sys va);
  Alcotest.(check int) "no kernel on warm hit" kernel_before
    m.Metrics.kernel_entries;
  (* leaving the context closes the door again *)
  Machines.Plb_machine.set_code_context t None;
  Alcotest.check outcome "after return denies" Access.Protection_fault
    (System_ops.write sys va);
  (* unguard purges the context-tagged entries *)
  Machines.Plb_machine.set_code_context t (Some code);
  Machines.Plb_machine.unguard_segment t ~data;
  Alcotest.check outcome "after unguard denies" Access.Protection_fault
    (System_ops.write sys va)

let test_okamoto_inert_without_guards () =
  (* with no guards, the extension must not change anything: setting a code
     context still denies unattached data *)
  let t = Machines.Plb_machine.create Config.default in
  let sys =
    System_intf.Packed
      ( (module Machines.Plb_machine : System_intf.SYSTEM
          with type t = Machines.Plb_machine.t),
        t )
  in
  let d = System_ops.new_domain sys in
  let data = System_ops.new_segment sys ~pages:2 () in
  let code = System_ops.new_segment sys ~pages:1 () in
  System_ops.attach sys d code Rights.rx;
  System_ops.switch_domain sys d;
  Machines.Plb_machine.set_code_context t (Some code);
  Alcotest.check outcome "still denied" Access.Protection_fault
    (System_ops.read sys (Segment.page_va data 0))

let test_pg_eager_reload () =
  (* with eager reload, the groups of the incoming domain are preloaded at
     the switch, so its first accesses take no pg-cache misses *)
  let run eager =
    let config = Config.v ~pg_eager_reload:eager () in
    let sys = Machines.make Machines.Page_group config in
    let d1 = System_ops.new_domain sys in
    let d2 = System_ops.new_domain sys in
    let seg = System_ops.new_segment sys ~pages:4 () in
    System_ops.attach sys d1 seg Rights.rw;
    System_ops.attach sys d2 seg Rights.rw;
    System_ops.switch_domain sys d1;
    ignore (System_ops.read sys (Segment.page_va seg 0));
    System_ops.switch_domain sys d2;
    ignore (System_ops.read sys (Segment.page_va seg 0));
    let m = System_ops.metrics sys in
    let before = m.Metrics.pg_misses in
    System_ops.switch_domain sys d1;
    ignore (System_ops.read sys (Segment.page_va seg 1));
    m.Metrics.pg_misses - before
  in
  Alcotest.(check bool) "lazy misses after switch" true (run 0 > 0);
  Alcotest.(check int) "eager avoids the miss" 0 (run 8)

let test_pg_private_lock_policy () =
  (* under the private policy, two read-sharing domains alternate the page
     between their private groups; under shared they co-reside *)
  let regroups policy =
    let config = Config.v ~pg_lock_policy:policy () in
    let t = Machines.Pg_machine.create config in
    let sys =
      System_intf.Packed
        ( (module Machines.Pg_machine : System_intf.SYSTEM
            with type t = Machines.Pg_machine.t),
          t )
    in
    let d1 = System_ops.new_domain sys in
    let d2 = System_ops.new_domain sys in
    let seg = System_ops.new_segment sys ~pages:2 () in
    System_ops.attach sys d1 seg Rights.none;
    System_ops.attach sys d2 seg Rights.none;
    let va = Segment.page_va seg 0 in
    (* both take read locks, then alternate accesses *)
    System_ops.grant sys d1 va Rights.r;
    System_ops.grant sys d2 va Rights.r;
    for _ = 1 to 5 do
      System_ops.switch_domain sys d1;
      ignore (System_ops.read sys va);
      System_ops.switch_domain sys d2;
      ignore (System_ops.read sys va)
    done;
    (System_ops.metrics sys).Metrics.regroups
  in
  let private_r = regroups `Private and shared_r = regroups `Shared in
  Alcotest.(check bool) "private policy thrashes" true (private_r > shared_r);
  Alcotest.(check bool) "shared policy settles" true (shared_r <= 3)

let test_conv_flush_grant_not_current () =
  (* on the untagged-TLB variant, a grant to a non-running domain needs no
     TLB work (its entries died at the last switch) but must still hold in
     the truth when that domain runs *)
  let sys = mk Machines.Conv_flush in
  let d1, d2, seg = setup sys in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.rw;
  System_ops.switch_domain sys d1;
  ignore (System_ops.write sys (Segment.page_va seg 0));
  System_ops.grant sys d2 (Segment.page_va seg 0) Rights.none;
  System_ops.switch_domain sys d2;
  Alcotest.check outcome "revocation holds after switch" Access.Protection_fault
    (System_ops.read sys (Segment.page_va seg 0))

let test_smp_shootdowns () =
  let run cpus =
    let config = Config.v ~cpus () in
    let sys = Machines.make Machines.Plb config in
    let d1 = System_ops.new_domain sys in
    let d2 = System_ops.new_domain sys in
    let seg = System_ops.new_segment sys ~pages:4 () in
    System_ops.attach sys d1 seg Rights.rw;
    System_ops.attach sys d2 seg Rights.rw;
    System_ops.switch_domain sys d1;
    ignore (System_ops.write sys (Segment.page_va seg 0));
    System_ops.grant sys d2 (Segment.page_va seg 0) Rights.none;
    System_ops.unmap_page sys
      (Va.vpn_of_va Geometry.default (Segment.page_va seg 0));
    System_ops.metrics sys
  in
  let m1 = run 1 and m4 = run 4 in
  Alcotest.(check int) "uniprocessor: no shootdowns" 0 m1.Metrics.shootdowns;
  Alcotest.(check bool) "smp: shootdowns occur" true (m4.Metrics.shootdowns > 0);
  Alcotest.(check bool) "smp costs more" true (m4.Metrics.cycles > m1.Metrics.cycles)

let test_l2_disabled_by_default () =
  let sys = Machines.make Machines.Plb Config.default in
  let d = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:4 () in
  System_ops.attach sys d seg Rights.rw;
  System_ops.switch_domain sys d;
  for i = 0 to 3 do
    ignore (System_ops.read sys (Segment.page_va seg i))
  done;
  let m = System_ops.metrics sys in
  Alcotest.(check int) "no L2 traffic" 0 (m.Metrics.l2_hits + m.Metrics.l2_misses)

(* Building a default machine must cost what a run uses, not what its
   configuration could hold: a word per frame for 65,536 frames, a record
   per line for 2,048 cache lines, or OS tables pre-sized for thousands of
   entries would each break the budget. *)
let test_build_allocation v () =
  ignore (mk v);
  (* a minor collection inside the window would count the words it
     promotes a second time; an empty minor heap keeps it out *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (mk v));
  let words = (Gc.allocated_bytes () -. a0) /. 8.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= 40,000" words)
    true (words <= 40_000.)

(* Whole-run goldens: a seeded 600-op conformance script on a small
   machine (8 frames under 12 pages, 2x2 PLB, 2x4 TLB, 4-entry page-group
   cache), so paging, evictions, purges and rights rewrites all run. The
   recorded values are what both cache and OS-table implementations
   produced when the boxed reference models still shipped beside the int
   lanes. Only non-zero counters enter a digest, so a new counter that
   stays zero here keeps it. *)
let golden_config =
  Config.v ~frames:8 ~plb_sets:2 ~plb_ways:2 ~tlb_sets:2 ~tlb_ways:4
    ~pg_entries:4 ()

let golden_script =
  Check.Gen.script
    (Util.Prng.create ~seed:7)
    Check.Op.default_geom ~ops:600

(* Total cycles, the digest of the non-zero counters and access outcomes,
   and the counters themselves (for the failure report). *)
let golden_run sys engine =
  let r =
    Check.Exec.run_packed ~engine Check.Op.default_geom golden_script sys
  in
  let fields =
    List.filter (fun (_, n) -> n <> 0) (Metrics.fields (System_ops.metrics sys))
  in
  let text =
    String.concat ";"
      (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) fields
      @ List.map (Format.asprintf "%a" Access.pp_outcome) r.Check.Exec.outcomes
      )
  in
  (List.assoc "cycles" fields, Digest.to_hex (Digest.string text), fields)

let check_golden what (cycles, digest) (c, d, fields) =
  if (c, d) <> (cycles, digest) then
    Alcotest.failf "%s: cycles %d digest %s, expected %d %s\n%s" what c d
      cycles digest
      (String.concat "\n"
         (List.map (fun (k, n) -> Printf.sprintf "  %s %d" k n) fields))

(* One core; both engines must reproduce the same run. *)
let golden_uni =
  [
    ("plb", (3161352, "8a77f8724d97421298134c90c778632a"));
    ("page-group", (2967351, "7b0ff192548eff75cceb8c5832884f58"));
    ("pk", (3157955, "9dbf77645b7ea986b6ad02193158c767"));
    ("conv-asid", (3161973, "e8a158dd35c05a2356fca4d6146ab3c5"));
    ("conv-flush", (3164364, "048e4d910573c855a5f499c772abefc3"));
  ]

let test_golden_uni label v () =
  List.iter
    (fun engine ->
      check_golden
        (Engine.to_string engine ^ " engine")
        (List.assoc label golden_uni)
        (golden_run (Machines.make v golden_config) engine))
    [ Engine.Scalar; Engine.Batch ]

(* Four cores, each holding its own caches, under every purge policy (in
   [Smp.all_purges] order): the seeded interleaving, the shootdowns and
   the replicas' purge work, on both engines. *)
let golden_smp =
  [
    ( "plb",
      [
        (1011398, "c739806b5aaa5c7dcd51b261c82b1a63");
        (979968, "bf992175c0cdfefcc27e35f9cacd882e");
        (974198, "9fbad2db5e61855c196f4e21cdb48904");
      ] );
    ( "page-group",
      [
        (1030577, "5980825f08c52070c1aa8077daee0618");
        (999147, "af837e057c670f6c6cde1edb6f0785b5");
        (993377, "bca5b35cbfb51077987688b58d6c2b59");
      ] );
    ( "pk",
      [
        (1004966, "3261d0f638d3413f265aae2786487554");
        (973536, "1fdb3e99a2463520dd2c3cc670cf8bcd");
        (967766, "14b6b90a7cfea828f917694a8f2f581d");
      ] );
    ( "conv-asid",
      [
        (1017629, "7a09cb15f97ab4aaa8c0a34169b8bec9");
        (986199, "c20e9965ed9fa18bc1c8ce0d886ac5cc");
        (980429, "9f1025b1c91f82240409882b1f7c2356");
      ] );
    ( "conv-flush",
      [
        (1017685, "634490c09561fdf35eba0dadfc35cf2d");
        (986255, "b24da690bbff40a66de30c76d2b79678");
        (980485, "b89b94634e391159d1d9692f048488f7");
      ] );
  ]

let test_golden_smp label v () =
  List.iter2
    (fun purge expected ->
      List.iter
        (fun engine ->
          check_golden
            (Printf.sprintf "%s purge, %s engine"
               (Smp.purge_to_string purge) (Engine.to_string engine))
            expected
            (golden_run
               (Machines.make_smp v ~cores:4 ~purge golden_config)
               engine))
        [ Engine.Scalar; Engine.Batch ])
    Smp.all_purges (List.assoc label golden_smp)

let suite =
  for_all_machines "basic protection" test_basic_protection
  @ for_all_machines "read-only attachment" test_read_only_attachment
  @ for_all_machines "grant is per-domain" test_grant_is_per_domain
  @ for_all_machines "detach revokes" test_detach_revokes
  @ for_all_machines "protect_all" test_protect_all
  @ for_all_machines "protect_segment" test_protect_segment
  @ for_all_machines "unmap then touch" test_unmap_then_touch
  @ for_all_machines "destroy segment" test_destroy_segment
  @ for_all_machines "hardware never over-allows" test_never_over_allows
  @ for_all_machines "destroy domain" test_destroy_domain
  @ for_all_machines "destroy running domain rejected"
      test_destroy_running_domain_rejected
  @ for_all_machines "switch metrics" test_switch_metrics
  @ for_all_machines "access metrics" test_access_metrics
  @ List.map
      (fun (label, v) ->
        Alcotest.test_case
          (Printf.sprintf "default build allocates <= 40K words [%s]" label)
          `Quick (test_build_allocation v))
      variants
  @ List.map
      (fun (label, v) ->
        Alcotest.test_case
          (Printf.sprintf "golden whole run [%s]" label)
          `Quick (test_golden_uni label v))
      variants
  @ List.map
      (fun (label, v) ->
        Alcotest.test_case
          (Printf.sprintf "golden multicore run [%s]" label)
          `Quick (test_golden_smp label v))
      variants
  @ [
      Alcotest.test_case "plb: switch = one register" `Quick
        test_plb_switch_is_one_register;
      Alcotest.test_case "page-group: switch purges pg-cache" `Quick
        test_pg_switch_purges_pgc;
      Alcotest.test_case "page-group: shared page = one TLB entry" `Quick
        test_pg_shared_page_single_tlb_entry;
      Alcotest.test_case "plb: shared page duplicates entries" `Quick
        test_plb_shared_page_duplicates;
      Alcotest.test_case "machine list tracks Sys_select" `Quick
        test_variants_match_registry;
      Alcotest.test_case "pk: switch = one key-register swap" `Quick
        test_pk_switch_is_register_swap;
      Alcotest.test_case "pk: shared page = one TLB entry" `Quick
        test_pk_shared_page_single_tlb_entry;
      Alcotest.test_case "conv-asid: shared page duplicates TLB" `Quick
        test_conv_asid_duplicates_tlb;
      Alcotest.test_case "conv-flush: switch purges TLB+cache" `Quick
        test_conv_flush_purges_on_switch;
      Alcotest.test_case "page-group: mixed attach uses D bit" `Quick
        test_pg_write_disable_mixed_attach;
      Alcotest.test_case "page-group: lock transfer regroups page" `Quick
        test_pg_inexpressible_pattern_thrashes;
      Alcotest.test_case "plb: coarse-grain refill" `Quick
        test_plb_coarse_grain_refill;
      Alcotest.test_case "page-group: sequential penalty" `Quick
        test_pg_sequential_penalty;
      Alcotest.test_case "page-group: eager pg-cache reload" `Quick
        test_pg_eager_reload;
      Alcotest.test_case "page-group: private lock policy thrashes" `Quick
        test_pg_private_lock_policy;
      Alcotest.test_case "conv-flush: grant to non-running domain" `Quick
        test_conv_flush_grant_not_current;
      Alcotest.test_case "smp: shootdown accounting" `Quick
        test_smp_shootdowns;
      Alcotest.test_case "okamoto: execution-point guards" `Quick
        test_okamoto_guard;
      Alcotest.test_case "okamoto: inert without guards" `Quick
        test_okamoto_inert_without_guards;
      Alcotest.test_case "second-level cache behaviour" `Quick
        test_l2_behaviour;
      Alcotest.test_case "L2 disabled by default" `Quick
        test_l2_disabled_by_default;
    ]
