(* report: experiments from the registry through the parallel runner at
   one job and their rendered report, exactly as `sasos report --jobs 1
   --only ...`. The whole registry takes over half a minute at one job on
   a 2-CPU host, and most entries take 1-7 s each (table1 2.9 s,
   crossover 3.8 s, smp-coherence 7.4 s). The run's time is each
   experiment's fastest over many passes, and a multi-second experiment
   gets too few passes to find a quiet moment on a shared host, so the
   subset is every experiment that finishes in well under a second. The
   experiments carry their own fixed seeds, so the benchmark seed does not
   change this workload. *)

open Sasos

let ids =
  [
    "micro_ops"; "sharing"; "granularity"; "cache_org"; "attach"; "locks";
    "dsm_protocol"; "okamoto"; "tag_overhead";
  ]

let select () =
  match Experiments.Registry.select ids with
  | Ok exps -> exps
  | Error msg -> failwith msg

(* [pieces]: each experiment's time as the runner measured it *)
let pass_of results seconds =
  let text = Runner.report_text results in
  let failed = List.length (Runner.failures results) in
  {
    Workload.seconds;
    pieces =
      List.map
        (fun (r : Runner.result) -> (r.id, Int64.to_float r.wall_ns *. 1e-9))
        results;
    attempted = List.length results;
    failed;
    digest = Pb.md5 text;
    counts = [ ("experiments", List.length results); ("failed", failed) ];
  }

let make ~seed:_ =
  let exps = ref [] in
  let setup () = exps := select () in
  let untraced () =
    let t0 = Pb.now_ns () in
    let results = Runner.run ~jobs:1 !exps in
    let seconds = Pb.since t0 in
    pass_of results seconds
  in
  (* one runner call per experiment, each timed from outside *)
  let traced () =
    let t0 = Pb.now_ns () in
    let timed =
      List.map
        (fun (e : Experiments.Experiment.t) ->
          let results, dt = Workload.time (fun () -> Runner.run ~jobs:1 [ e ]) in
          (e.id, results, dt))
        !exps
    in
    let total = Pb.since t0 in
    let results = List.concat_map (fun (_, r, _) -> r) timed in
    {
      Workload.total;
      coverage = List.fold_left (fun a (_, _, dt) -> a +. dt) 0.0 timed /. total;
      same = pass_of results total;
      layers = List.map (fun (id, _, dt) -> ("experiments." ^ id ^ "_s", dt)) timed;
    }
  in
  {
    Workload.inputs =
      [ ("experiments", String.concat "," ids); ("jobs", "1");
        ("seeds", "the registry's own") ];
    setup;
    untraced;
    min_passes = 1;
    max_passes = max_int;
    same_each_pass = true;
    reference_pass = 0;
    traced;
  }
