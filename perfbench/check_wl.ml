(* check: the differential conformance harness on the default geometry,
   200-op scripts on all five machines, at one job — `sasos check --scripts
   200 --seed <seed>` per pass. Most of its operations are protection changes,
   switches, unmaps and destroys on a 12-page world, and most of its time
   goes to building machines: the write side of the machine layer. *)

open Sasos

let ops = 200
let scripts = 200
let geom = Check.Op.default_geom

(* One script counts as failed for each kind of failure the harness
   reports on it: divergence (outcome mismatch or crash) and hardware
   over-allow. *)
let pass_of (r : Check.Harness.report) seconds =
  let text = Check.Harness.report_text r in
  {
    Workload.seconds;
    pieces = [ ("pass", seconds) ];
    attempted = r.scripts;
    failed = r.divergent + r.over_allows;
    digest = Pb.md5 text;
    counts =
      ("scripts", r.scripts) :: ("divergent", r.divergent)
      :: ("over_allows", r.over_allows)
      :: List.concat_map
           (fun (b : Check.Harness.batch) ->
             [
               (Printf.sprintf "batch%d.divergent" b.index, b.divergent);
               (Printf.sprintf "batch%d.over_allows" b.index, b.over_allows);
             ])
           r.batches;
  }

let run ?mutation ?(scripts = scripts) ~seed () =
  let t0 = Pb.now_ns () in
  let r = Check.Harness.run ~jobs:1 ?mutation ~geom ~ops ~scripts ~seed () in
  let seconds = Pb.since t0 in
  (r, pass_of r seconds)

(* The harness's per-script loop re-driven from its public pieces, with
   every machine behind a timing wrapper. Verdicts are compared with the
   untraced report batch by batch. *)
let traced ~seed (untraced : Check.Harness.report) =
  let gen = ref 0.0 and oracle = ref 0.0 and create = ref 0.0 in
  let exec = ref 0.0 and machine_ns = ref 0 and creates = ref 0 in
  let c = Timed_sys.counters () in
  let metrics = Metrics.create () in
  let verdicts =
    Array.init scripts (fun i ->
        let sseed = Check.Harness.script_seed ~seed i in
        let script, dt =
          Workload.time (fun () ->
              Check.Gen.script (Util.Prng.create ~seed:sseed) geom ~ops)
        in
        gen := !gen +. dt;
        let want, dt = Workload.time (fun () -> Check.Oracle.run geom script) in
        oracle := !oracle +. dt;
        List.fold_left
          (fun (diverged, over) (_, variant) ->
            let sys, dt =
              Workload.time (fun () -> Machines.make variant Config.default)
            in
            create := !create +. dt;
            incr creates;
            let m0 = Timed_sys.total_ns c in
            let t0 = Pb.now_ns () in
            let verdict =
              match
                Check.Exec.run_packed geom script
                  (Timed_sys.pack (Timed_sys.wrap c sys))
              with
              | r ->
                  ( diverged
                    || not (List.equal Access.outcome_equal r.outcomes want),
                    over || r.over_allow )
              | exception _ -> (true, over)
            in
            exec := !exec +. Pb.since t0;
            machine_ns := !machine_ns + (Timed_sys.total_ns c - m0);
            Metrics.add_into metrics (System_ops.metrics sys);
            verdict)
          (false, false) Machines.all)
  in
  (* regroup the verdicts by the untraced report's batch partition *)
  let batches, _ =
    List.fold_left
      (fun (acc, lo) (b : Check.Harness.batch) ->
        let count f =
          let n = ref 0 in
          for i = lo to lo + b.scripts - 1 do
            if f verdicts.(i) then incr n
          done;
          !n
        in
        ( { b with divergent = count fst; over_allows = count snd } :: acc,
          lo + b.scripts ))
      ([], 0) untraced.batches
  in
  let batches = List.rev batches in
  let sum f = List.fold_left (fun a b -> a + f b) 0 batches in
  (* the traced loop does not shrink, so the untraced counterexamples stay *)
  let report =
    {
      untraced with
      batches;
      divergent = sum (fun (b : Check.Harness.batch) -> b.divergent);
      over_allows = sum (fun (b : Check.Harness.batch) -> b.over_allows);
    }
  in
  let total = !gen +. !oracle +. !create +. !exec in
  let machine_s = float_of_int !machine_ns *. 1e-9 in
  let same = pass_of report total in
  (total, same,
   [
     ("check.gen_s", !gen);
     ("check.oracle_s", !oracle);
     ("check.exec_self_s", !exec -. machine_s);
   ]
   @ Workload.machine_layers c ~creates:!creates ~create_s:!create
   @ Workload.hw_layers metrics)

let make ~seed =
  let last = ref None in
  let untraced () =
    let r, pass = run ~seed () in
    last := Some r;
    pass
  in
  let traced () =
    let untraced = Option.get !last in
    let t0 = Pb.now_ns () in
    let covered, same, layers = traced ~seed untraced in
    let total = Pb.since t0 in
    { Workload.total; coverage = covered /. total; same; layers }
  in
  {
    Workload.inputs =
      [ ("ops", string_of_int ops); ("scripts", string_of_int scripts);
        ("geometry", Printf.sprintf "%dd/%ds/%dp" geom.domains geom.segments
           geom.pages_per_seg);
        ("machines", Machines.names_doc); ("run_seed", string_of_int seed);
        ("jobs", "1") ];
    setup = ignore;
    untraced;
    min_passes = 1;
    max_passes = max_int;
    same_each_pass = true;
    reference_pass = 0;
    traced;
  }
