(* Multicore shootdown layer (lib/smp): the seeded-interleaving
   determinism contract — identical (seed, cores, policy) means
   byte-identical metrics and schedule hash on every machine and engine —
   plus the per-policy coherence invariants (eager leaves no stale entry
   behind; lazy traps on every stale reuse and never grants above the
   pre-revocation snapshot; batched flushes exactly at the IPI budget)
   and the multicore differential harness itself. *)

open Sasos
module Op = Check.Op
module Gen = Check.Gen
module Exec = Check.Exec
module Harness = Check.Harness
module Mutate = Check.Mutate

let geom = Op.default_geom
let outcome = Alcotest.testable Access.pp_outcome Access.outcome_equal

let variants =
  [
    ("plb", Machines.Plb);
    ("page-group", Machines.Page_group);
    ("pk", Machines.Pk);
    ("conv-asid", Machines.Conv_asid);
    ("conv-flush", Machines.Conv_flush);
  ]

(* Restore every process-global a test touches, pass or fail — the rest
   of the suite runs single-core. *)
let with_globals f =
  let cores = Smp.cores () in
  let purge = Smp.purge () in
  let budget = Smp.ipi_budget () in
  Fun.protect
    ~finally:(fun () ->
      Smp.set_cores cores;
      Smp.set_purge purge;
      Smp.set_ipi_budget budget)
    f

(* -- interleaving determinism (QCheck) ---------------------------------- *)

(* Everything observable about one multicore run: the full metrics
   record, the schedule hash (folds (step, core, op) — equal iff the two
   runs interleaved identically) and the access outcomes. *)
type fingerprint = {
  fp_fields : (string * int) list;
  fp_hash : int;
  fp_steps : int;
  fp_outcomes : Access.outcome list;
}

let run_once variant engine ~script ~mseed ~cores ~purge =
  let sys = Machines.make_smp variant ~cores ~purge (Config.v ~seed:mseed ()) in
  let r = Exec.run_packed ~engine geom script sys in
  let h = Option.get (Smp.last ()) in
  {
    fp_fields = Metrics.fields (System_ops.metrics sys);
    fp_hash = h.Smp.h_schedule_hash ();
    fp_steps = h.Smp.h_steps ();
    fp_outcomes = r.Exec.outcomes;
  }

let gen_case =
  QCheck2.Gen.(
    triple (int_range 0 1000) (int_range 2 8) (oneofl Smp.all_purges))

let print_case (seed, cores, purge) =
  Printf.sprintf "seed=%d cores=%d purge=%s" seed cores
    (Smp.purge_to_string purge)

let prop_determinism =
  QCheck2.Test.make ~count:4 ~print:print_case
    ~name:
      "identical (seed,cores,policy) => identical metrics and schedule \
       hash; different seed => different hash [all machines x engines]"
    gen_case
    (fun (seed, cores, purge) ->
      with_globals (fun () ->
          let script =
            Gen.script (Util.Prng.create ~seed:((seed * 3) + 1)) geom ~ops:40
          in
          List.for_all
            (fun (_, variant) ->
              let go = run_once variant ~script ~cores ~purge in
              let a = go Engine.Scalar ~mseed:seed in
              let b = go Engine.Scalar ~mseed:seed in
              let batch = go Engine.Batch ~mseed:seed in
              (* a different machine seed reorders the interleaving: same
                 script, different core draws, different hash *)
              let other = go Engine.Scalar ~mseed:(seed + 1) in
              a = b && batch = a && other.fp_hash <> a.fp_hash)
            variants))

(* -- coherence invariants ----------------------------------------------- *)

module M = Smp.Make (Machines.Plb_machine)

let handle () = Option.get (Smp.last ())

(* one domain attached to one segment, primed with enough reads that
   every core's private structures have seen the mapping *)
let setup ~cores ~purge ?ipi_budget ~rights () =
  let t = M.create_with ~cores ~purge ?ipi_budget Config.default in
  let d1 = M.new_domain t in
  let seg = M.new_segment t ~pages:4 () in
  M.attach t d1 seg rights;
  M.switch_domain t d1;
  for i = 0 to 31 do
    ignore (M.access t Access.Read (Segment.page_va seg (i mod 4)))
  done;
  (t, d1, seg)

let test_eager_purges_on_ack () =
  let t, d1, seg = setup ~cores:4 ~purge:Smp.Eager ~rights:Rights.rw () in
  let m = M.metrics t in
  Alcotest.(check int) "no shootdown before the revocation" 0
    m.Metrics.shootdowns;
  M.protect_segment t d1 seg Rights.none;
  let h = handle () in
  Alcotest.(check int) "revocation forced one synchronous round" 1
    m.Metrics.shootdowns;
  Alcotest.(check int) "one IPI per remote core" 3 m.Metrics.ipis;
  Alcotest.(check int) "no core left holding the revoked mapping" 0
    (h.Smp.h_pending_total ());
  Alcotest.(check int) "eager never takes a stale trap" 0
    m.Metrics.stale_hits;
  (* whichever core the scheduler picks next, the access sees truth *)
  for i = 0 to 7 do
    Alcotest.check outcome "post-shootdown access faults on every core"
      Access.Protection_fault
      (M.access t Access.Read (Segment.page_va seg (i mod 4)))
  done;
  Alcotest.(check bool) "hardware never over-allows" false
    (M.hw_over_allows t [ (d1, Segment.page_va seg 0) ])

let test_lazy_stale_traps () =
  let t, d1, seg = setup ~cores:2 ~purge:Smp.Lazy ~rights:Rights.rw () in
  let m = M.metrics t in
  M.protect_segment t d1 seg Rights.none;
  let h = handle () in
  Alcotest.(check int) "lazy sends no IPIs" 0 m.Metrics.ipis;
  Alcotest.(check bool) "remote core still holds the revoked mapping" true
    (h.Smp.h_pending_total () > 0);
  (* every post-revocation Ok is a stale entry being served from the
     pre-revocation snapshot, and each one must have trapped *)
  let ok = ref 0 in
  for i = 0 to 39 do
    match M.access t Access.Read (Segment.page_va seg (i mod 4)) with
    | Access.Ok -> incr ok
    | Access.Protection_fault -> ()
  done;
  Alcotest.(check bool) "schedule exercised a stale entry" true (!ok > 0);
  Alcotest.(check int) "every stale hit raised the trap counter" !ok
    m.Metrics.stale_hits;
  Alcotest.(check int) "validate-on-use drained the pending set" 0
    (h.Smp.h_pending_total ());
  (* drained: the mapping is gone everywhere, truth from here on *)
  Alcotest.check outcome "after draining, accesses fault"
    Access.Protection_fault
    (M.access t Access.Read (Segment.page_va seg 0))

let test_lazy_snapshot_bounds_stale_grant () =
  (* read-only attachment: even a stale entry must not grant a write *)
  let t, d1, seg = setup ~cores:2 ~purge:Smp.Lazy ~rights:Rights.r () in
  let m = M.metrics t in
  M.protect_segment t d1 seg Rights.none;
  for i = 0 to 39 do
    Alcotest.check outcome
      "stale entry never grants above the pre-revocation snapshot"
      Access.Protection_fault
      (M.access t Access.Write (Segment.page_va seg (i mod 4)))
  done;
  Alcotest.(check bool) "stale hits still trapped while denying" true
    (m.Metrics.stale_hits > 0);
  Alcotest.(check bool) "hardware never over-allows" false
    (M.hw_over_allows t [ (d1, Segment.page_va seg 0) ])

let test_batched_flushes_at_budget () =
  let t = M.create_with ~cores:4 ~purge:Smp.Batched ~ipi_budget:2
      Config.default
  in
  let d1 = M.new_domain t in
  let s1 = M.new_segment t ~pages:2 () in
  let s2 = M.new_segment t ~pages:2 () in
  M.attach t d1 s1 Rights.rw;
  M.attach t d1 s2 Rights.rw;
  M.switch_domain t d1;
  let m = M.metrics t in
  let h = handle () in
  M.protect_segment t d1 s1 Rights.none;
  Alcotest.(check int) "first revocation queues, no round" 0
    m.Metrics.shootdowns;
  Alcotest.(check bool) "queued revocation is pending remotely" true
    (h.Smp.h_pending_total () > 0);
  M.protect_segment t d1 s2 Rights.none;
  Alcotest.(check int) "second revocation reaches the budget: one round" 1
    m.Metrics.shootdowns;
  Alcotest.(check int) "the flush purged every pending entry" 0
    (h.Smp.h_pending_total ());
  Alcotest.(check int) "one IPI per remote core in the flushed round" 3
    m.Metrics.ipis

let test_destroy_forces_round_under_lazy () =
  (* destroys reuse frames: even lazy must synchronize *)
  let t, d1, seg = setup ~cores:4 ~purge:Smp.Lazy ~rights:Rights.rw () in
  let m = M.metrics t in
  let h = handle () in
  M.protect_segment t d1 seg Rights.none;
  Alcotest.(check bool) "revocation pending under lazy" true
    (h.Smp.h_pending_total () > 0);
  M.destroy_segment t seg;
  Alcotest.(check int) "destroy forced a synchronous round" 1
    m.Metrics.shootdowns;
  Alcotest.(check int) "the round cleared the pending set" 0
    (h.Smp.h_pending_total ())

(* -- the multicore differential harness --------------------------------- *)

let test_harness_multicore_green () =
  with_globals (fun () ->
      List.iter
        (fun purge ->
          Smp.set_cores 4;
          Smp.set_purge purge;
          let r = Harness.run ~jobs:1 ~ops:40 ~scripts:6 ~seed:11 () in
          Alcotest.(check bool)
            (Printf.sprintf "4-core %s: all machines agree with the mirror"
               (Smp.purge_to_string purge))
            false (Harness.failed r))
        Smp.all_purges)

let test_harness_multicore_sensitivity () =
  (* a planted bug must still be visible through the multicore mirror *)
  with_globals (fun () ->
      Smp.set_cores 2;
      Smp.set_purge Smp.Eager;
      let mutation = Option.get (Mutate.find "skip-detach") in
      let r = Harness.run ~jobs:1 ~mutation ~ops:60 ~scripts:10 ~seed:7 () in
      Alcotest.(check bool) "skip-detach detected at 2 cores" true
        (Harness.failed r))

let suite =
  [
    Qprop.to_alcotest prop_determinism;
    Alcotest.test_case "eager: ack leaves no stale entry" `Quick
      test_eager_purges_on_ack;
    Alcotest.test_case "lazy: stale hits trap, then drain" `Quick
      test_lazy_stale_traps;
    Alcotest.test_case "lazy: snapshot bounds stale grants" `Quick
      test_lazy_snapshot_bounds_stale_grant;
    Alcotest.test_case "batched: flush exactly at ipi-budget" `Quick
      test_batched_flushes_at_budget;
    Alcotest.test_case "lazy: destroy forces a synchronous round" `Quick
      test_destroy_forces_round_under_lazy;
    Alcotest.test_case "harness green at 4 cores, every policy" `Quick
      test_harness_multicore_green;
    Alcotest.test_case "harness still sees planted bugs at 2 cores" `Quick
      test_harness_multicore_sensitivity;
  ]
