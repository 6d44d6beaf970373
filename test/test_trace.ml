open Sasos
open Sasos.Os
open Sasos.Trace

let outcome = Alcotest.testable Access.pp_outcome Access.outcome_equal

(* a recorder over a PLB machine, exposed as a packed SYSTEM *)
let recording () =
  let inner = Machines.make Machines.Plb Config.default in
  let r = Recorder.wrap inner in
  let sys =
    System_intf.Packed
      ((module Recorder : System_intf.SYSTEM with type t = Recorder.t), r)
  in
  (r, sys)

let drive sys =
  let d1 = System_ops.new_domain sys in
  let d2 = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~name:"demo" ~pages:4 () in
  System_ops.attach sys d1 seg Rights.rw;
  System_ops.attach sys d2 seg Rights.r;
  System_ops.switch_domain sys d1;
  let o1 = System_ops.write sys (Segment.page_va seg 0) in
  System_ops.switch_domain sys d2;
  let o2 = System_ops.write sys (Segment.page_va seg 0) in
  let o3 = System_ops.read sys (Segment.page_va seg 0) in
  System_ops.grant sys d2 (Segment.page_va seg 1) Rights.rw;
  let o4 = System_ops.write sys (Segment.page_va seg 1) in
  System_ops.protect_segment sys d1 seg Rights.r;
  System_ops.detach sys d2 seg;
  [ o1; o2; o3; o4 ]

let test_record_and_replay_all_machines () =
  let r, sys = recording () in
  let recorded_outcomes = drive sys in
  let trace = Recorder.events r in
  Alcotest.(check bool) "trace non-empty" true (List.length trace > 8);
  List.iter
    (fun (_, v) ->
      let replayed =
        Player.replay_exn trace (Machines.make v Config.default)
      in
      Alcotest.(check (list outcome)) "same outcomes" recorded_outcomes replayed)
    Machines.all

let test_line_roundtrip () =
  let samples =
    [
      Event.New_domain;
      Event.Destroy_domain { pd = 1 };
      Event.New_segment { pages = 7; align_shift = Some 22; name = "heap" };
      Event.New_segment { pages = 1; align_shift = None; name = "" };
      Event.Destroy_segment { seg = 3 };
      Event.Attach { pd = 1; seg = 2; rights = Rights.rw };
      Event.Detach { pd = 0; seg = 0 };
      Event.Grant { pd = 2; seg = 1; off = 4096; rights = Rights.none };
      Event.Protect_all { seg = 0; off = 0; rights = Rights.r };
      Event.Protect_segment { pd = 1; seg = 1; rights = Rights.rx };
      Event.Switch { pd = 2 };
      Event.Access { kind = Access.Read; seg = 0; off = 12 };
      Event.Access { kind = Access.Write; seg = 1; off = 8191 };
      Event.Access { kind = Access.Execute; seg = 0; off = 0 };
      Event.Unmap { seg = 2; page = 3 };
      Event.Charge { cycles = 5_000; page_ins = 0; page_outs = 2 };
    ]
  in
  List.iter
    (fun e ->
      match Event.of_line (Event.to_line e) with
      | Ok e' ->
          Alcotest.(check bool) (Event.to_line e) true (Event.equal e e')
      | Error msg -> Alcotest.fail msg)
    samples

let test_of_line_errors () =
  List.iter
    (fun line ->
      match Event.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("should reject: " ^ line))
    [ "bogus"; "attach 1"; "attach a 2 3"; "attach 1 2 9"; "access q 0 0"; "" ]

let test_store_roundtrip () =
  let r, sys = recording () in
  ignore (drive sys);
  let trace = Recorder.events r in
  let path = Filename.temp_file "sasos" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.save path ~header:"test trace\nsecond header line" trace;
      match Store.load path with
      | Ok loaded ->
          Alcotest.(check int) "same length" (List.length trace)
            (List.length loaded);
          Alcotest.(check bool) "same events" true
            (List.for_all2 Event.equal trace loaded)
      | Error msg -> Alcotest.fail msg)

let test_store_parse_error () =
  match Store.of_string "domain\nnonsense here\n" with
  | Error msg ->
      Alcotest.(check bool) "names the line" true
        (String.length msg > 0 && String.sub msg 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "should fail"

let test_player_rejects_bad_trace () =
  let sys = Machines.make Machines.Plb Config.default in
  match Player.replay [ Event.Switch { pd = 0 } ] sys with
  | Error { at = 0; reason; _ } ->
      Alcotest.(check bool) "explains" true (String.length reason > 0)
  | Ok _ | Error _ -> Alcotest.fail "expected error at event 0"

let test_player_offset_bounds () =
  let sys = Machines.make Machines.Plb Config.default in
  let trace =
    [
      Event.New_domain;
      Event.New_segment { pages = 1; align_shift = None; name = "" };
      Event.Access { kind = Access.Read; seg = 0; off = 4096 };
    ]
  in
  match Player.replay trace sys with
  | Error { at = 2; _ } -> ()
  | Ok _ | Error _ -> Alcotest.fail "offset out of segment must fail"

(* Event lines the parser accepts but the machine refuses: each must come
   back from the player as an error at its own index, naming the refusal,
   on every machine, instead of escaping as an exception. *)
let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_player_machine_refusal (line, why) () =
  match Store.of_string ("domain\nswitch 0\n" ^ line ^ "\n") with
  | Error msg -> Alcotest.failf "%S does not parse: %s" line msg
  | Ok trace ->
      List.iter
        (fun (name, v) ->
          match Player.replay trace (Machines.make v Config.default) with
          | Error { at = 2; reason; _ } ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %S names %S" name line why)
                true (contains reason why)
          | Error { at; reason; _ } ->
              Alcotest.failf "%s: %S failed at event %d: %s" name line at
                reason
          | Ok _ -> Alcotest.failf "%s: %S replayed" name line)
        Machines.all

let machine_refusals =
  [
    ("segment 0 - -", "pages <= 0");
    ("segment 4 62 -", "align_shift >= 61");
    (* 2^50 pages of 4 KB: the size wrapped negative before the
       Segment_table guard *)
    ("segment 1125899906842624 - -", "pages exceed the address space");
    ("charge -5 0 0", "negative amount");
    ("destroy-domain 0", "domain is running");
  ]

let test_charge_recorded_and_replayed () =
  (* a workload-level charge goes through the recorder into the trace, and
     a replay applies the identical amounts to the replayed machine *)
  let r, sys = recording () in
  let before = Hw.Metrics.copy (System_ops.metrics sys) in
  System_ops.charge_external sys ~page_ins:1 ~page_outs:2 ~cycles:5_000 ();
  let m = System_ops.metrics sys in
  Alcotest.(check int) "cycles charged" 5_000
    (m.Hw.Metrics.cycles - before.Hw.Metrics.cycles);
  Alcotest.(check int) "page-ins counted" 1
    (m.Hw.Metrics.page_ins - before.Hw.Metrics.page_ins);
  Alcotest.(check int) "page-outs counted" 2
    (m.Hw.Metrics.page_outs - before.Hw.Metrics.page_outs);
  Alcotest.(check bool) "event recorded" true
    (List.exists
       (fun e ->
         Event.equal e
           (Event.Charge { cycles = 5_000; page_ins = 1; page_outs = 2 }))
       (Recorder.events r));
  List.iter
    (fun (name, v) ->
      let sys2 = Machines.make v Config.default in
      let b2 = Hw.Metrics.copy (System_ops.metrics sys2) in
      ignore (Player.replay_exn (Recorder.events r) sys2);
      let m2 = System_ops.metrics sys2 in
      Alcotest.(check bool)
        (name ^ ": replay re-applies the charge")
        true
        (m2.Hw.Metrics.cycles - b2.Hw.Metrics.cycles >= 5_000
        && m2.Hw.Metrics.page_ins - b2.Hw.Metrics.page_ins = 1
        && m2.Hw.Metrics.page_outs - b2.Hw.Metrics.page_outs = 2))
    Machines.all;
  Alcotest.check_raises "negative amount rejected"
    (Invalid_argument "charge_external: negative amount") (fun () ->
      System_ops.charge_external sys ~cycles:(-1) ())

let test_recorder_default_create () =
  (* Recorder.create wraps a fresh PLB machine, making it usable anywhere a
     SYSTEM is expected *)
  let r = Recorder.create Config.default in
  Alcotest.(check string) "inner is plb" "plb"
    (System_ops.name (Recorder.inner r));
  let sys =
    System_intf.Packed
      ((module Recorder : System_intf.SYSTEM with type t = Recorder.t), r)
  in
  let d = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:1 () in
  System_ops.attach sys d seg Rights.rw;
  System_ops.switch_domain sys d;
  Alcotest.check outcome "works" Access.Ok (System_ops.read sys seg.Segment.base);
  Alcotest.(check int) "events logged" 5 (List.length (Recorder.events r));
  Recorder.clear r;
  Alcotest.(check int) "cleared" 0 (List.length (Recorder.events r))

let test_stats () =
  let r, sys = recording () in
  ignore (drive sys);
  let stats = Stats.of_events (Recorder.events r) in
  Alcotest.(check int) "domains" 2 stats.Stats.domains;
  Alcotest.(check int) "segments" 1 stats.Stats.segments;
  Alcotest.(check int) "accesses" 4 stats.Stats.accesses;
  Alcotest.(check int) "writes" 3 stats.Stats.writes;
  Alcotest.(check int) "reads" 1 stats.Stats.reads;
  Alcotest.(check int) "switches" 2 stats.Stats.switches;
  Alcotest.(check int) "attaches" 2 stats.Stats.attaches;
  Alcotest.(check int) "detaches" 1 stats.Stats.detaches;
  Alcotest.(check int) "unique pages" 2 stats.Stats.unique_pages

let test_recorder_metrics_passthrough () =
  let r, sys = recording () in
  ignore (drive sys);
  let m = System_ops.metrics sys in
  Alcotest.(check int) "accesses forwarded" 4 m.Metrics.accesses;
  Alcotest.(check bool) "inner reachable" true
    (System_ops.name (Recorder.inner r) = "plb")

let test_workload_through_recorder () =
  (* record a real workload, replay on the page-group machine, and check
     the replay sees the same protection faults *)
  let r, sys = recording () in
  ignore
    (Sasos.Workloads.Dsm.run
       ~params:{ Sasos.Workloads.Dsm.default with pages = 16; refs = 1_000 }
       sys);
  let faults_rec = (System_ops.metrics sys).Metrics.protection_faults in
  let trace = Recorder.events r in
  let target = Machines.make Machines.Page_group Config.default in
  let outcomes = Player.replay_exn trace target in
  let faults_replay =
    List.length (List.filter (( = ) Access.Protection_fault) outcomes)
  in
  Alcotest.(check int) "same fault count" faults_rec faults_replay

(* property: a random synthetic workload recorded through the Recorder
   replays with identical outcomes and identical serialized form after a
   store round trip *)
let prop_record_replay_roundtrip =
  QCheck2.Test.make ~count:30 ~name:"record/store/replay roundtrip"
    QCheck2.Gen.(
      triple (int_range 1 1000) (int_range 1 8) (int_range 0 2))
    (fun (refs, domains, variant_ix) ->
      let variant = List.nth [ Machines.Plb; Machines.Page_group; Machines.Conv_asid ] variant_ix in
      let inner = Machines.make variant Config.default in
      let r = Recorder.wrap inner in
      let sys =
        System_intf.Packed
          ((module Recorder : System_intf.SYSTEM with type t = Recorder.t), r)
      in
      Sasos.Workloads.Synthetic.run
        ~params:
          { Sasos.Workloads.Synthetic.default with refs; domains;
            sharing = min 2 domains; seed = refs }
        sys;
      let trace = Recorder.events r in
      (* serialize and parse back *)
      match Store.of_string (Store.to_string trace) with
      | Error _ -> false
      | Ok loaded ->
          List.length loaded = List.length trace
          && List.for_all2 Event.equal trace loaded
          && (* replay on a fresh machine of another model: all accesses in
                the synthetic workload are legal, so every outcome is Ok *)
          List.for_all
            (( = ) Access.Ok)
            (Player.replay_exn loaded
               (Machines.make Machines.Conv_flush Config.default)))

(* property (conformance scripts): a protection-heavy Check script — with
   faults, grants, revocations and destroys — recorded through the
   Recorder survives a Store write/read cycle and replays with identical
   access outcomes on every machine model *)
let prop_check_trace_roundtrip =
  QCheck2.Test.make ~count:40
    ~name:"check-script trace roundtrip on all machines"
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let geom = Sasos.Check.Op.default_geom in
      let script = Sasos.Check.Gen.script (Util.Prng.create ~seed) geom ~ops:40 in
      let inner = Machines.make Machines.Plb Config.default in
      let r = Recorder.wrap inner in
      let sys =
        System_intf.Packed
          ((module Recorder : System_intf.SYSTEM with type t = Recorder.t), r)
      in
      let recorded =
        (Sasos.Check.Exec.run_packed geom script sys).Sasos.Check.Exec.outcomes
      in
      let path = Filename.temp_file "sasos_check" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Store.save path ~header:"roundtrip property" (Recorder.events r);
          match Store.load path with
          | Error _ -> false
          | Ok loaded ->
              List.for_all
                (fun (_, v) ->
                  let replayed =
                    Player.replay_exn loaded (Machines.make v Config.default)
                  in
                  List.length replayed = List.length recorded
                  && List.for_all2 Access.outcome_equal replayed recorded)
                Machines.all))

let suite =
  [
    Alcotest.test_case "record/replay on all machines" `Quick
      test_record_and_replay_all_machines;
    Qprop.to_alcotest prop_record_replay_roundtrip;
    Qprop.to_alcotest prop_check_trace_roundtrip;
    Alcotest.test_case "event line roundtrip" `Quick test_line_roundtrip;
    Alcotest.test_case "event parse errors" `Quick test_of_line_errors;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store parse error" `Quick test_store_parse_error;
    Alcotest.test_case "player rejects bad trace" `Quick
      test_player_rejects_bad_trace;
    Alcotest.test_case "player offset bounds" `Quick test_player_offset_bounds;
  ]
  @ List.map
      (fun ((line, _) as refusal) ->
        Alcotest.test_case
          (Printf.sprintf "player refuses [%s]" line)
          `Quick
          (test_player_machine_refusal refusal))
      machine_refusals
  @ [
    Alcotest.test_case "recorder default create" `Quick
      test_recorder_default_create;
    Alcotest.test_case "charge recorded and replayed" `Quick
      test_charge_recorded_and_replayed;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "recorder metrics passthrough" `Quick
      test_recorder_metrics_passthrough;
    Alcotest.test_case "workload through recorder" `Quick
      test_workload_through_recorder;
  ]
