(* Protection-keys machine (lib/machine/pk_machine.ml) tests.

   The agreement suite and `sasos check` already run the pk machine under
   the default configuration; this file drives the configurations the
   generic harness never reaches — a 2-key register file where every
   second rights signature exhausts the allocator, both exhaustion
   policies, and a multiprocessor — in QCheck lockstep against the pure
   lib/check oracle, plus directed tests for the recycle/trap mechanics
   and a ddmin-minimized exhaustion boundary repro. *)

open Sasos
open Sasos.Os
module Op = Check.Op
module Gen = Check.Gen
module Oracle = Check.Oracle
module Exec = Check.Exec
module Shrink = Check.Shrink
module Pk = Machines.Pk_machine

let geom = Op.default_geom

let pack t =
  System_intf.Packed
    ((module Pk : System_intf.SYSTEM with type t = Pk.t), t)

let page_va seg i = Segment.page_va seg i

(* --- QCheck lockstep vs the oracle ----------------------------------- *)

(* A (seed, ops) pair denotes one deterministic script via lib/check's own
   generator, so counterexamples print as replayable scripts. *)
let gen_case =
  QCheck2.Gen.(map2 (fun seed ops -> (seed, ops)) (int_bound 0xFFFFFF)
                 (int_range 10 80))

let print_case (seed, ops) =
  let script = Gen.script (Util.Prng.create ~seed) geom ~ops in
  Printf.sprintf "seed %d, %d ops: %s" seed ops (Op.show_script script)

let lockstep ~name config =
  QCheck2.Test.make ~count:120 ~print:print_case ~name gen_case
    (fun (seed, ops) ->
      let script = Gen.script (Util.Prng.create ~seed) geom ~ops in
      let want = Oracle.run geom script in
      let t = Pk.create config in
      let { Exec.outcomes; over_allow } =
        Exec.run_packed geom script (pack t)
      in
      (not over_allow)
      && List.length outcomes = List.length want
      && List.for_all2 Access.outcome_equal outcomes want)

let prop_default =
  lockstep ~name:"pk lockstep: default config" Config.default

let prop_tiny_recycle =
  lockstep ~name:"pk lockstep: 2 keys, recycle policy"
    (Config.v ~pk_keys:2 ~pk_policy:`Recycle ())

let prop_tiny_trap =
  lockstep ~name:"pk lockstep: 2 keys, trap policy"
    (Config.v ~pk_keys:2 ~pk_policy:`Trap ())

let prop_smp =
  lockstep ~name:"pk lockstep: 4 cpus (shootdown paths)"
    (Config.v ~cpus:4 ())

(* key recycling on a multiprocessor: every recycle purges the victim
   key's entries and shoots them down on the other cpus *)
let prop_smp_recycle =
  lockstep ~name:"pk lockstep: 4 cpus, 2 keys, recycle policy"
    (Config.v ~cpus:4 ~pk_keys:2 ~pk_policy:`Recycle ())

(* trap policy never recycles: its whole point is to leave bindings alone
   and mediate unkeyed pages in the kernel *)
let prop_trap_never_recycles =
  QCheck2.Test.make ~count:120 ~print:print_case
    ~name:"pk trap policy: zero key recycles" gen_case
    (fun (seed, ops) ->
      let script = Gen.script (Util.Prng.create ~seed) geom ~ops in
      let t = Pk.create (Config.v ~pk_keys:2 ~pk_policy:`Trap ()) in
      ignore (Exec.run_packed geom script (pack t));
      (Pk.metrics t).Metrics.key_recycles = 0)

(* --- exhaustion boundary + ddmin ------------------------------------- *)

(* with pk_keys:2 there is exactly one allocatable key, so two distinct
   rights signatures force an exhaustion event; this is the smallest
   boundary the machine has *)
let recycles config script =
  let t = Pk.create config in
  match Exec.run_packed geom script (pack t) with
  | _ -> (Pk.metrics t).Metrics.key_recycles > 0
  | exception _ -> false

let boundary_script =
  [
    Op.Attach { d = 0; s = 0; r = Rights.rw };
    Op.Acc { kind = Access.Read; p = 0 };
    Op.Grant { d = 0; p = 1; r = Rights.r };
    Op.Acc { kind = Access.Read; p = 1 };
  ]

let test_exhaustion_boundary () =
  let config = Config.v ~pk_keys:2 ~pk_policy:`Recycle () in
  Alcotest.(check bool) "4-op script recycles" true
    (recycles config boundary_script);
  (* ddmin must keep the repro at or below the hand-written 4 ops *)
  let shrunk =
    Shrink.minimize ~valid:(Op.valid geom) ~failing:(recycles config)
      boundary_script
  in
  Alcotest.(check bool)
    (Printf.sprintf "minimized to <= 4 ops (got %d: %s)" (List.length shrunk)
       (Op.show_script shrunk))
    true
    (List.length shrunk <= 4);
  Alcotest.(check bool) "minimized script still recycles" true
    (recycles config shrunk);
  (* the same boundary under the trap policy: no recycle, same outcomes *)
  let trap = Config.v ~pk_keys:2 ~pk_policy:`Trap () in
  let t = Pk.create trap in
  let { Exec.outcomes; over_allow } =
    Exec.run_packed geom boundary_script (pack t)
  in
  Alcotest.(check bool) "trap policy: no over-allow" false over_allow;
  Alcotest.(check int) "trap policy: no recycle" 0
    (Pk.metrics t).Metrics.key_recycles;
  List.iter2
    (fun got want ->
      Alcotest.(check bool) "trap policy outcome" true
        (Access.outcome_equal got want))
    outcomes
    (Oracle.run geom boundary_script)

(* --- directed mechanics ---------------------------------------------- *)

let setup_shared config =
  let t = Pk.create config in
  let sys = pack t in
  let d0 = System_ops.new_domain sys in
  let seg = System_ops.new_segment sys ~pages:4 () in
  System_ops.attach sys d0 seg Rights.rw;
  System_ops.switch_domain sys d0;
  for i = 0 to 3 do
    ignore (System_ops.write sys (page_va seg i))
  done;
  (t, sys, d0, seg)

let test_recycle_purges_victim () =
  (* 4 resident pages share one key; a per-page grant forces a second
     signature, the victim key is recycled, and its TLB entries go *)
  let t, sys, d0, seg =
    setup_shared (Config.v ~pk_keys:2 ~pk_policy:`Recycle ())
  in
  Alcotest.(check int) "one live key before" 1 (Pk.live_keys t);
  let m = Pk.metrics t in
  let before = Metrics.copy m in
  System_ops.grant sys d0 (page_va seg 0) Rights.r;
  let d = Metrics.diff m before in
  Alcotest.(check int) "one recycle" 1 d.Metrics.key_recycles;
  Alcotest.(check bool) "victim's resident entries purged" true
    (d.Metrics.entries_purged >= 3);
  Alcotest.(check bool) "sweep slots accounted" true
    (d.Metrics.entries_inspected >= d.Metrics.entries_purged);
  (* protection still enforced after the churn *)
  Alcotest.(check bool) "write now faults" true
    (Access.outcome_equal
       (System_ops.write sys (page_va seg 0))
       Access.Protection_fault);
  Alcotest.(check bool) "read still ok" true
    (Access.outcome_equal (System_ops.read sys (page_va seg 0)) Access.Ok);
  Alcotest.(check bool) "no over-allow" false
    (System_ops.hw_over_allows sys [ (d0, page_va seg 0) ])

let test_recycle_shootdown_on_smp () =
  let run cpus =
    let t, sys, d0, seg =
      setup_shared (Config.v ~cpus ~pk_keys:2 ~pk_policy:`Recycle ())
    in
    let m = Pk.metrics t in
    let before = Metrics.copy m in
    System_ops.grant sys d0 (page_va seg 0) Rights.r;
    Metrics.diff m before
  in
  let d1 = run 1 and d4 = run 4 in
  Alcotest.(check int) "uniprocessor recycle: no shootdowns" 0
    d1.Metrics.shootdowns;
  Alcotest.(check bool) "smp recycle: shootdowns occur" true
    (d4.Metrics.shootdowns > 0)

let test_trap_key_mediated () =
  (* under the trap policy, the page that lost the allocator race stays
     kernel-mediated: accesses succeed but each one enters the kernel *)
  let t, sys, d0, seg =
    setup_shared (Config.v ~pk_keys:2 ~pk_policy:`Trap ())
  in
  System_ops.grant sys d0 (page_va seg 0) Rights.r;
  let m = Pk.metrics t in
  Alcotest.(check bool) "granted page reads ok" true
    (Access.outcome_equal (System_ops.read sys (page_va seg 0)) Access.Ok);
  let k1 = m.Metrics.kernel_entries in
  Alcotest.(check bool) "mediated read enters the kernel" true
    (let _ = System_ops.read sys (page_va seg 0) in
     m.Metrics.kernel_entries > k1);
  Alcotest.(check int) "still no recycling" 0 m.Metrics.key_recycles;
  Alcotest.(check bool) "no over-allow" false
    (System_ops.hw_over_allows sys [ (d0, page_va seg 0) ])

let test_alike_units_share_a_key () =
  (* all pages of a uniformly-attached segment carry one key; key
     allocation is per rights signature, not per page *)
  let t, _, _, seg = setup_shared Config.default in
  Alcotest.(check int) "one live key" 1 (Pk.live_keys t);
  let k0 = Pk.key_of_va t (page_va seg 0) in
  for i = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "page %d shares the key" i)
      true
      (Pk.key_of_va t (page_va seg i) = k0)
  done

let suite =
  [
    Qprop.to_alcotest prop_default;
    Qprop.to_alcotest prop_tiny_recycle;
    Qprop.to_alcotest prop_tiny_trap;
    Qprop.to_alcotest prop_smp;
    Qprop.to_alcotest prop_smp_recycle;
    Qprop.to_alcotest prop_trap_never_recycles;
    Alcotest.test_case "exhaustion boundary minimizes to <= 4 ops" `Quick
      test_exhaustion_boundary;
    Alcotest.test_case "recycle purges the victim key's entries" `Quick
      test_recycle_purges_victim;
    Alcotest.test_case "recycle shootdown accounting on SMP" `Quick
      test_recycle_shootdown_on_smp;
    Alcotest.test_case "trap policy: kernel-mediated access" `Quick
      test_trap_key_mediated;
    Alcotest.test_case "alike-protected pages share one key" `Quick
      test_alike_units_share_a_key;
  ]
