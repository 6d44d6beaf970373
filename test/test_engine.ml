(* Differential gates for the two batch execution paths.

   Engine level: QCheck lockstep of the scalar event interpreter vs the
   trace-compiled decode loop over generated conformance scripts on every
   machine variant, plus the compile/to_events exact round trip.

   Kernel level: per-op lockstep of the hardware batch kernel against the
   equivalent scalar API calls on same-seed rigs — accumulator sum and
   hit/miss/eviction/length counters compared after every single op,
   under all three replacement policies (Random included: victim draws
   must come from the same splitmix stream on both paths). Fused runs
   cover both superop arms: tag 6 (all-LRU, 8-way page group) and the
   generic tag 5 (FIFO / Random / non-8-way PG).

   Also the compile-time lane audit: operands at the 26-bit AID and
   31-bit PFN boundaries fit; one past raises Invalid_argument naming the
   source op index. *)

open Sasos
module Q = QCheck2
module Op = Check.Op
module Exec = Check.Exec

let geom = Op.default_geom
let script_of ~seed ~ops = Check.Gen.script (Util.Prng.create ~seed) geom ~ops

(* ---------- Engine: scalar vs batch over conformance scripts ---------- *)

let result_equal a b =
  a.Exec.over_allow = b.Exec.over_allow
  && List.length a.Exec.outcomes = List.length b.Exec.outcomes
  && List.for_all2 Access.outcome_equal a.Exec.outcomes b.Exec.outcomes

let prop_engine_lockstep =
  Qprop.to_alcotest
    (Q.Test.make ~name:"engine: scalar = batch on every machine variant"
       ~count:30
       Q.Gen.(pair (int_bound 1_000_000) (int_range 1 60))
       (fun (seed, ops) ->
         let script = script_of ~seed ~ops in
         List.for_all
           (fun (_, v) ->
             result_equal
               (Exec.run ~engine:Engine.Scalar geom script v)
               (Exec.run ~engine:Engine.Batch geom script v))
           Machines.all))

let prop_engine_roundtrip =
  Qprop.to_alcotest
    (Q.Test.make ~name:"engine: to_events (compile events) = events"
       ~count:60
       Q.Gen.(pair (int_bound 1_000_000) (int_range 1 120))
       (fun (seed, ops) ->
         let events = Op.to_events geom (script_of ~seed ~ops) in
         let again = Engine.to_events (Engine.compile events) in
         List.length events = List.length again
         && List.for_all2 Trace.Event.equal events again))

(* ---------- Kernel: batch decode vs scalar API on a concrete rig ----- *)

(* same geometry and warm-up as bench/hot_path.ml's rig: slightly over
   capacity so generated streams mix hits, misses, installs, evictions *)
type rig = { plb : Hw.Plb.t; tlb : Hw.Tlb.t; pgc : Hw.Page_group_cache.t }

let make_rig ?(pg_entries = 8) policy =
  let plb = Hw.Plb.create ~policy ~sets:16 ~ways:4 () in
  let tlb = Hw.Tlb.create ~policy ~sets:16 ~ways:4 () in
  let pgc = Hw.Page_group_cache.create ~policy ~entries:pg_entries () in
  for i = 0 to 95 do
    Hw.Plb.install plb
      ~pd:(Pd.of_int ((i land 7) + 1))
      ~va:((i land 127) * 0x1000)
      ~shift:12 Rights.rw
  done;
  for aid = 1 to 6 do
    Hw.Page_group_cache.load pgc ~aid ~write_disabled:(aid land 1 = 1)
  done;
  { plb; tlb; pgc }

let stats_of rig =
  List.map
    (fun cache ->
      Hw.Packed_cache.(hits cache, misses cache, evictions cache, length cache))
    [
      Hw.Plb.raw_cache rig.plb;
      Hw.Tlb.raw_cache rig.tlb;
      Hw.Page_group_cache.raw_cache rig.pgc;
    ]

(* the scalar-API meaning of each kernel op — the loop shape the batch
   decode arms must reproduce bit for bit (cf. bench/hot_path.ml) *)
let scalar_step rig acc op =
  match op with
  | Kernel.Plb_find { pd; va; shift = _ } ->
      acc + Hw.Plb.lookup_bits rig.plb ~pd:(Pd.of_int pd) ~va
  | Kernel.Plb_install { pd; va; shift; rights } ->
      Hw.Plb.install rig.plb ~pd:(Pd.of_int pd) ~va ~shift rights;
      acc
  | Kernel.Tlb_access
      { space; vpn; write; refill_pfn; refill_aid; refill_rights } ->
      let e = Hw.Tlb.lookup rig.tlb ~space ~vpn in
      if e <> Hw.Tlb.absent then begin
        Hw.Tlb.mark_used rig.tlb ~space ~vpn ~write;
        acc + Hw.Tlb.pfn_of e
      end
      else begin
        Hw.Tlb.install rig.tlb ~space ~vpn
          (Hw.Tlb.pack ~pfn:refill_pfn ~rights:refill_rights ~aid:refill_aid
             ~dirty:false ~referenced:false);
        acc
      end
  | Kernel.Pg_check { aid } ->
      acc + Hw.Page_group_cache.check_bits rig.pgc ~aid
  | Kernel.Pg_load { aid; write_disabled } ->
      Hw.Page_group_cache.load rig.pgc ~aid ~write_disabled;
      acc

let kop_gen =
  let open Q.Gen in
  frequency
    [
      ( 4,
        map2
          (fun pd i ->
            Kernel.Plb_find
              { pd = pd + 1; va = (i land 127) * 0x1000; shift = 12 })
          (int_bound 7) (int_bound 127) );
      ( 2,
        map2
          (fun pd i ->
            Kernel.Plb_install
              {
                pd = pd + 1;
                va = (i land 127) * 0x1000;
                shift = 12;
                rights = (if i land 1 = 0 then Rights.rw else Rights.r);
              })
          (int_bound 7) (int_bound 127) );
      ( 4,
        map3
          (fun vpn write pfn ->
            Kernel.Tlb_access
              {
                space = 0;
                vpn;
                write;
                refill_pfn = pfn;
                refill_aid = vpn land 7;
                refill_rights = Rights.rw;
              })
          (int_bound 63) bool (int_bound 1000) );
      (3, map (fun aid -> Kernel.Pg_check { aid }) (int_bound 9));
      ( 1,
        map2
          (fun aid wd -> Kernel.Pg_load { aid; write_disabled = wd })
          (int_bound 9) bool );
    ]

let policies = Hw.Replacement.[ Lru; Fifo; Random ]

let prop_kernel_step_lockstep =
  Qprop.to_alcotest
    (Q.Test.make
       ~name:"kernel: per-op lockstep, sum + stats, all policies" ~count:80
       Q.Gen.(pair (oneofl policies) (list_size (int_range 1 80) kop_gen))
       (fun (policy, ops) ->
         let r1 = make_rig policy and r2 = make_rig policy in
         let prog =
           Kernel.compile ~fuse:false ~plb:r2.plb ~tlb:r2.tlb ~pgc:r2.pgc ops
         in
         Kernel.length prog = List.length ops
         &&
         let ok = ref true and acc_s = ref 0 and acc_b = ref 0 in
         List.iteri
           (fun i op ->
             acc_s := scalar_step r1 !acc_s op;
             acc_b := Kernel.step prog i !acc_b;
             if !acc_s <> !acc_b || stats_of r1 <> stats_of r2 then
               ok := false)
           ops;
         !ok))

(* ---------- fused superop runs --------------------------------------- *)

(* the protection-path triple pattern hot_path replays, plus stragglers
   so the same program mixes superop and generic slots *)
let fused_ops =
  List.concat
    (List.init 64 (fun i ->
         let vpn = (i * 3) land 63 in
         [
           Kernel.Plb_find
             { pd = (i land 7) + 1; va = (i * 7) land 127 * 0x1000; shift = 12 };
           Kernel.Tlb_access
             {
               space = 0;
               vpn;
               write = i land 1 = 0;
               refill_pfn = vpn;
               refill_aid = vpn land 7;
               refill_rights = Rights.rw;
             };
           Kernel.Pg_check { aid = i land 7 };
         ]))
  @ [
      Kernel.Pg_load { aid = 9; write_disabled = false };
      Kernel.Plb_install { pd = 3; va = 0x5000; shift = 12; rights = Rights.r };
      Kernel.Plb_find { pd = 3; va = 0x5000; shift = 12 };
    ]

let check_fused_run ?pg_entries policy =
  let r1 = make_rig ?pg_entries policy
  and r2 = make_rig ?pg_entries policy in
  let prog = Kernel.compile ~plb:r2.plb ~tlb:r2.tlb ~pgc:r2.pgc fused_ops in
  Alcotest.(check bool)
    "triples fused into fewer slots" true
    (Kernel.length prog < List.length fused_ops);
  (* three reps so the second and third hit the way-prediction lanes the
     first rep trained (and retrain them across evictions) *)
  let acc = ref 0 in
  for _ = 1 to 3 do
    List.iter (fun op -> acc := scalar_step r1 !acc op) fused_ops
  done;
  Alcotest.(check int) "accumulated sum" !acc (Kernel.run ~reps:3 prog);
  Alcotest.(check bool)
    "hit/miss/eviction/length counters" true
    (stats_of r1 = stats_of r2)

let test_fused_lru () = check_fused_run Hw.Replacement.Lru
let test_fused_fifo () = check_fused_run Hw.Replacement.Fifo
let test_fused_random () = check_fused_run Hw.Replacement.Random

let test_fused_lru_small_pg () =
  (* all-LRU but a 4-way page group: must take the generic superop arm,
     not the specialized 8-way one *)
  check_fused_run ~pg_entries:4 Hw.Replacement.Lru

(* ---------- compile-time lane audit ---------------------------------- *)

let tlb_op ?(aid = 1) ?(pfn = 1) () =
  Kernel.Tlb_access
    {
      space = 0;
      vpn = 1;
      write = false;
      refill_pfn = pfn;
      refill_aid = aid;
      refill_rights = Rights.rw;
    }

let test_kernel_lane_boundaries () =
  let r = make_rig Hw.Replacement.Lru in
  let compile ops =
    ignore (Kernel.compile ~fuse:false ~plb:r.plb ~tlb:r.tlb ~pgc:r.pgc ops)
  in
  (* boundary values fit *)
  compile [ tlb_op ~aid:((1 lsl 26) - 1) ~pfn:((1 lsl 31) - 1) () ];
  compile [ Kernel.Pg_check { aid = (1 lsl 26) - 1 } ];
  (* one past the boundary is rejected, naming the source op index *)
  Alcotest.check_raises "aid 2^26 rejected at op 0"
    (Invalid_argument
       "Kernel.compile: op 0: aid 67108864 does not fit the 26-bit lane")
    (fun () -> compile [ tlb_op ~aid:(1 lsl 26) () ]);
  Alcotest.check_raises "pfn 2^31 rejected at op 1"
    (Invalid_argument
       "Kernel.compile: op 1: pfn 2147483648 does not fit the 31-bit lane")
    (fun () -> compile [ tlb_op (); tlb_op ~pfn:(1 lsl 31) () ]);
  Alcotest.check_raises "page-group aid 2^26 rejected at op 0"
    (Invalid_argument
       "Kernel.compile: op 0: aid 67108864 does not fit the 26-bit lane")
    (fun () -> compile [ Kernel.Pg_check { aid = 1 lsl 26 } ])

let test_engine_lane_boundaries () =
  let compile events = ignore (Engine.compile events) in
  compile [ Trace.Event.Attach { pd = (1 lsl 26) - 1; seg = 0; rights = Rights.rw } ];
  Alcotest.check_raises "domain index 2^26 rejected at op 0"
    (Invalid_argument
       "Engine.compile: op 0: domain index 67108864 does not fit the 26-bit \
        lane")
    (fun () ->
      compile
        [ Trace.Event.Attach { pd = 1 lsl 26; seg = 0; rights = Rights.rw } ]);
  compile
    [
      Trace.Event.Charge
        { cycles = (1 lsl 31) - 1; page_ins = 0; page_outs = 0 };
    ];
  Alcotest.check_raises "charge cycles 2^31 rejected at op 0"
    (Invalid_argument
       "Engine.compile: op 0: cycles 2147483648 does not fit the 31-bit lane")
    (fun () ->
      compile
        [ Trace.Event.Charge { cycles = 1 lsl 31; page_ins = 0; page_outs = 0 } ])

(* Workloads that charge external costs (DSM network fetches, checkpoint
   disk writes) must report identical metrics on both engines: the charge
   rides the trace as a Charge event, so the batch replay re-applies it.
   Regression for the batch engine silently dropping these costs. *)
let test_charge_workload_engine_parity () =
  let run_with engine workload =
    let prev = Engine.default_engine () in
    Engine.set_default_engine engine;
    Fun.protect ~finally:(fun () -> Engine.set_default_engine prev)
      (fun () ->
        let m, _ =
          Experiments.Experiment.run_on Machines.Plb Os.Config.default
            workload
        in
        m)
  in
  let workloads =
    [
      ( "dsm",
        fun sys ->
          ignore
            (Workloads.Dsm.run
               ~params:{ Workloads.Dsm.default with refs = 2_000; pages = 32 }
               sys) );
      ( "checkpoint",
        fun sys ->
          ignore
            (Workloads.Checkpoint.run
               ~params:
                 {
                   Workloads.Checkpoint.default with
                   data_pages = 32;
                   checkpoints = 2;
                   refs_between = 500;
                   refs_during = 500;
                 }
               sys) );
    ]
  in
  List.iter
    (fun (name, workload) ->
      let ms = run_with Engine.Scalar workload
      and mb = run_with Engine.Batch workload in
      Alcotest.(check int) (name ^ ": cycles") ms.Hw.Metrics.cycles
        mb.Hw.Metrics.cycles;
      Alcotest.(check int) (name ^ ": page-ins") ms.Hw.Metrics.page_ins
        mb.Hw.Metrics.page_ins;
      Alcotest.(check int) (name ^ ": page-outs") ms.Hw.Metrics.page_outs
        mb.Hw.Metrics.page_outs)
    workloads

let suite =
  [
    prop_engine_lockstep;
    prop_engine_roundtrip;
    prop_kernel_step_lockstep;
    Alcotest.test_case "fused superop run, LRU (tag 6)" `Quick test_fused_lru;
    Alcotest.test_case "fused superop run, FIFO (tag 5)" `Quick
      test_fused_fifo;
    Alcotest.test_case "fused superop run, Random (tag 5)" `Quick
      test_fused_random;
    Alcotest.test_case "fused superop run, LRU + 4-way PG (tag 5)" `Quick
      test_fused_lru_small_pg;
    Alcotest.test_case "kernel lane boundaries (26-bit aid, 31-bit pfn)"
      `Quick test_kernel_lane_boundaries;
    Alcotest.test_case "engine lane boundaries" `Quick
      test_engine_lane_boundaries;
    Alcotest.test_case "external charges identical across engines" `Quick
      test_charge_workload_engine_parity;
  ]
