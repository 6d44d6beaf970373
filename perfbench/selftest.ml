(* Self-tests of the benchmark's own instruments. *)

open Sasos
open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* The timing wrapper must be invisible: on one Table 1 workload per
   machine, the same Metrics as the bare machine, and the same outcomes
   when a recorded trace of it is replayed on both. *)
let wrapper_is_transparent () =
  let table1 =
    List.filter
      (fun (w : Workloads.Registry.entry) -> w.table1_row <> None)
      Workloads.Registry.all
  in
  List.iteri
    (fun i (mname, variant) ->
      let w = List.nth table1 (i mod List.length table1) in
      let label = Printf.sprintf "wrapper transparent: %s on %s" w.name mname in
      let bare = Machines.make variant Config.default in
      w.run bare;
      let c = Timed_sys.counters () in
      let inner = Machines.make variant Config.default in
      w.run (Timed_sys.pack (Timed_sys.wrap c inner));
      check (label ^ " (metrics)")
        (Metrics.fields (System_ops.metrics bare)
         = Metrics.fields (System_ops.metrics inner)
        && c.calls.(0) > 0);
      let r = Trace.Recorder.wrap (Machines.make Machines.Plb Config.default) in
      w.run
        (Os.System_intf.Packed
           ((module Trace.Recorder : Os.System_intf.SYSTEM with type t = Trace.Recorder.t), r));
      let events = Trace.Recorder.events r in
      let bare = Machines.make variant Config.default in
      let inner = Machines.make variant Config.default in
      let on_bare = Trace.Player.replay events bare in
      let on_timed = Trace.Player.replay events (Timed_sys.pack (Timed_sys.wrap c inner)) in
      check (label ^ " (replayed outcomes)")
        (match (on_bare, on_timed) with
        | Ok a, Ok b ->
            List.equal Access.outcome_equal a b
            && Metrics.fields (System_ops.metrics bare)
               = Metrics.fields (System_ops.metrics inner)
        | _ -> false))
    Machines.all

let percentile_refuses_thin_tails () =
  let samples n = Array.init n float_of_int in
  let refused p n = Result.is_error (Pb.percentile p (samples n)) in
  check "p99 of 100 samples refused (1 beyond)" (refused 99.0 100);
  check "p99 of 1000 samples accepted (10 beyond)" (not (refused 99.0 1000));
  check "p99 of 999 samples refused (9 beyond)" (refused 99.0 999);
  check "p90 of 100 samples accepted (10 beyond)" (not (refused 90.0 100));
  check "p50 of 19 samples refused (9 beyond)" (refused 50.0 19);
  check "p50 of 20 samples accepted" (not (refused 50.0 20));
  check "p99 of 2000 samples is the 1980th"
    (Pb.percentile 99.0 (samples 2000) = Ok 1979.0)

(* Failure counting must see a planted bug. *)
let failure_counting_sees_planted_bug () =
  let _, clean = Check_wl.run ~scripts:40 ~seed:7 () in
  check "check: no failures without a mutation" (clean.failed = 0);
  let mutation = Option.get (Check.Mutate.find "skip-detach") in
  let _, planted = Check_wl.run ~mutation ~scripts:40 ~seed:7 () in
  check
    (Printf.sprintf "check: skip-detach fails %d of %d scripts" planted.failed
       planted.attempted)
    (planted.failed > 0)

let () =
  percentile_refuses_thin_tails ();
  failure_counting_sees_planted_bug ();
  wrapper_is_transparent ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
