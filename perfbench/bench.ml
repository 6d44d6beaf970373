(* The benchmark's main program. One run: time the workload's set-up in fresh
   processes, run untraced passes of its timed region for the requested
   seconds, and with --trace 1 follow them with one traced pass that must
   do the same simulated work. The last line of stdout is the result:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   with the end-to-end metrics under --trace 0 and the per-layer metrics
   under --trace 1 (see catalog.ml).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]
     bench.exe --workload NAME --seed N --setup-only
     bench.exe --list-metrics *)

open Perfbench

let workloads =
  [
    ("report", Report_wl.make);
    ("check", Check_wl.make);
    ("scale", Scale_wl.make);
    ("replay", Replay_wl.make);
  ]

let min_setups = 5
and max_setups = 51
and setup_budget_s = 1.0

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]\n\
    \       bench.exe --workload NAME --seed N --setup-only\n\
    \       bench.exe --list-metrics";
  exit 2

let list_metrics () =
  let line kind (x : Catalog.metric) =
    print_endline
      (Pb.json_object
         [
           ("kind", Pb.json_string kind); ("name", Pb.json_string x.name);
           ("unit", Pb.json_string x.unit); ("better", Pb.json_string x.better);
           ("note", Pb.json_string x.note);
         ])
  in
  List.iter (line "end_to_end") Catalog.end_to_end;
  List.iter (line "per_layer") Catalog.per_layer

(* Wall time of a fresh process doing only the workload's set-up. *)
let time_setup ~workload ~seed =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--setup-only" |]
  in
  let t0 = Pb.now_ns () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  let dt = Pb.since t0 in
  match status with
  | Unix.WEXITED 0 -> dt
  | _ -> failwith "set-up process failed"

(* At least [min_setups] samples; cheap set-ups are sampled for about
   [setup_budget_s] so their median is as steady as a slow one's. *)
let sample_setup ~workload ~seed =
  let rec go acc n spent =
    if n >= max_setups || (n >= min_setups && spent >= setup_budget_s) then
      Array.of_list acc
    else
      let dt = time_setup ~workload ~seed in
      go (dt :: acc) (n + 1) (spent +. dt)
  in
  go [] 0 0.0

let manifest ~rev ~workload ~seed ~seconds ~trace (wl : Workload.t) =
  Pb.json_object
    [
      ("git_rev", Pb.json_string rev);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Pb.json_string Sys.ocaml_version);
      ("flambda", string_of_bool Build_info.flambda);
      ("workload", Pb.json_string workload);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_int trace);
      ("inputs", Pb.json_object (List.map (fun (k, v) -> (k, Pb.json_string v)) wl.inputs));
    ]

let same_work (a : Workload.pass) (b : Workload.pass) =
  a.digest = b.digest && a.counts = b.counts

let result ~correct ~attempted ~failed metrics =
  Pb.json_object
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        Pb.json_object
          (List.map
             (fun (name, value) ->
               let unit = Option.get (Catalog.unit_of name) in
               ( name,
                 Pb.json_object
                   [ ("value", Pb.json_float value); ("unit", Pb.json_string unit) ] ))
             metrics) );
    ]

let run ~workload ~seed ~seconds ~trace ~rev =
  let wl = (List.assoc workload workloads) ~seed in
  Printf.printf "manifest %s\n%!" (manifest ~rev ~workload ~seed ~seconds ~trace wl);
  let setup_s =
    if trace = 0 then Some (Pb.median (sample_setup ~workload ~seed)) else None
  in
  wl.setup ();
  (* the set-up's garbage is the set-up's to collect *)
  Gc.full_major ();
  (* untraced passes until the time is up; GC figures come from the first *)
  let deadline = Pb.now_ns () + (seconds * 1_000_000_000) in
  let g0 = Pb.gc_now () in
  let first = wl.untraced () in
  let g1 = Pb.gc_now () in
  let rec more n acc =
    if n < wl.max_passes && (n < wl.min_passes || Pb.now_ns () < deadline) then
      more (n + 1) (wl.untraced () :: acc)
    else List.rev acc
  in
  let passes = first :: more 1 [] in
  let peak_rss_mb = Pb.peak_rss_mb () and top_heap_mb = Pb.top_heap_mb () in
  (* each piece's fastest time over the passes, summed: repeated pieces
     differ only by how much the host interfered with them *)
  let run_s =
    let best = Hashtbl.create 64 in
    List.iter
      (fun (p : Workload.pass) ->
        List.iter
          (fun (k, t) ->
            Hashtbl.replace best k
              (Float.min t (Option.value ~default:infinity (Hashtbl.find_opt best k))))
          p.pieces)
      passes;
    Hashtbl.fold (fun _ t a -> a +. t) best 0.0
  in
  let reference = List.nth passes wl.reference_pass in
  Printf.printf "digest %s %s %s\n" workload reference.digest
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) reference.counts));
  Printf.printf "passes %d: %s s\n" (List.length passes)
    (String.concat " " (List.map (fun (p : Workload.pass) -> Printf.sprintf "%.4f" p.seconds) passes));
  let consistent = (not wl.same_each_pass) || List.for_all (same_work first) passes in
  if not consistent then prerr_endline "bench: untraced passes did different work";
  let attempted = List.fold_left (fun a (p : Workload.pass) -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a (p : Workload.pass) -> a + p.failed) 0 passes in
  let correct, attempted, failed, metrics =
    if trace = 0 then
      ( consistent && failed = 0,
        attempted,
        failed,
        [ ("setup_s", Option.get setup_s); ("run_s", run_s); ("peak_rss_mb", peak_rss_mb) ] )
    else begin
      let tr = wl.traced () in
      let honest = same_work reference tr.same in
      if not honest then
        Printf.eprintf "bench: traced pass did different work (digest %s vs %s)\n"
          tr.same.digest reference.digest;
      let overhead = (tr.total /. run_s) -. 1.0 in
      Printf.printf "traced %.4f s, overhead %.4f, layer coverage %.4f\n" tr.total overhead
        tr.coverage;
      let given =
        [
          ("bench.trace_overhead", overhead);
          ("bench.layer_coverage", tr.coverage);
          ("gc.minor_mwords", (g1.minor_words -. g0.minor_words) /. 1e6);
          ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
          ("gc.top_heap_mb", top_heap_mb);
        ]
        @ tr.layers
      in
      List.iter
        (fun (name, _) ->
          if not (List.exists (fun (x : Catalog.metric) -> x.name = name) Catalog.per_layer)
          then failwith ("metric missing from the catalog: " ^ name))
        given;
      (* a layer this workload does not reach reads 0 *)
      let metrics =
        List.map
          (fun (x : Catalog.metric) ->
            (x.name, Option.value ~default:0.0 (List.assoc_opt x.name given)))
          Catalog.per_layer
      in
      ( consistent && honest && failed = 0 && tr.same.failed = 0,
        attempted + tr.same.attempted,
        failed + tr.same.failed,
        metrics )
    end
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let metrics = List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.0)) metrics in
  print_endline (result ~correct:(correct && finite) ~attempted ~failed metrics)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let rev = ref "unknown" and setup_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: n :: rest ->
        seconds := Option.value ~default:(-1) (int_of_string_opt n);
        parse rest
    | "--trace" :: n :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt n);
        parse rest
    | "--rev" :: r :: rest -> rev := r; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | "--list-metrics" :: _ -> list_metrics (); exit 0
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed) with
  | None, _ | _, None -> usage ()
  | Some make, Some seed ->
      if !setup_only then (make ~seed).setup ()
      else if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ()
      else run ~workload:!workload ~seed ~seconds:!seconds ~trace:!trace ~rev:!rev
