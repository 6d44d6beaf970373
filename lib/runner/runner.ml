open Sasos_experiments
module Obs = Sasos_obs.Obs

type status =
  | Done
  | Failed of { exn : exn; backtrace : Printexc.raw_backtrace }

type result = {
  index : int;
  id : string;
  title : string;
  paper_ref : string;
  status : status;
  output : string;
  profile : Obs.summary option;
  wall_ns : int64;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let run_one ?(profile = false) ?sample_every ?ring_capacity index
    (e : Experiment.t) =
  (* Gc.minor_words, not quick_stat, for the minor count: on OCaml 5.1
     quick_stat's minor_words only advances at minor collections, so it
     reads 0 for an experiment that fits between two of them. It is
     domain-local, so the count is the same at every job count. *)
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = now_ns () in
  (* One collector per experiment, merged later in registry order, so the
     aggregated profile is independent of the job count. *)
  let collector =
    if profile then Obs.create ?sample_every ?ring_capacity ()
    else Obs.disabled
  in
  let status, output =
    match Obs.with_ambient collector e.Experiment.run with
    | body -> (Done, Experiment.header e ^ body)
    | exception exn ->
        let backtrace = Printexc.get_raw_backtrace () in
        ( Failed { exn; backtrace },
          Experiment.header e ^ "EXPERIMENT FAILED: " ^ Printexc.to_string exn
          ^ "\n" )
  in
  let summary =
    match status with
    | Done when profile -> ( try Some (Obs.summarize collector) with _ -> None)
    | Done | Failed _ -> None
  in
  let t1 = now_ns () in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  {
    index;
    id = e.Experiment.id;
    title = e.Experiment.title;
    paper_ref = e.Experiment.paper_ref;
    status;
    output;
    profile = summary;
    wall_ns = Int64.sub t1 t0;
    minor_words = m1 -. m0;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
  }

(* The pool itself lives in Sasos_util.Pool — the bottom of the layering
   — so the sharded simulation (whose experiments this runner executes)
   can fan out on the same primitive without a dependency cycle. *)
let map_pool = Sasos_util.Pool.map_pool
let map_pool_n = Sasos_util.Pool.map_pool_n

let run ?jobs ?profile ?sample_every ?ring_capacity experiments =
  (match jobs with
  | Some j when j < 1 -> invalid_arg "Runner.run: jobs must be >= 1"
  | _ -> ());
  map_pool ?jobs
    (fun (i, e) -> run_one ?profile ?sample_every ?ring_capacity i e)
    (List.mapi (fun i e -> (i, e)) experiments)

let merged_profile results =
  match List.filter_map (fun r -> r.profile) results with
  | [] -> None
  | summaries -> Some (Obs.merge summaries)

let report_text results =
  String.concat "\n" (List.map (fun r -> r.output) results)

let failures results =
  List.filter (fun r -> match r.status with Failed _ -> true | Done -> false)
    results

let error_message r =
  match r.status with
  | Done -> None
  | Failed { exn; _ } -> Some (Printexc.to_string exn)

(* -- JSON emission (hand-rolled: the toolchain ships no JSON library) -- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_results ?(jobs = 1) results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"sasos-metrics/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"total_wall_ns\": %Ld,\n"
       (List.fold_left (fun acc r -> Int64.add acc r.wall_ns) 0L results));
  Buffer.add_string buf
    (Printf.sprintf "  \"failed\": %d,\n" (List.length (failures results)));
  Buffer.add_string buf "  \"experiments\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    {\n";
      Buffer.add_string buf (Printf.sprintf "      \"index\": %d,\n" r.index);
      Buffer.add_string buf
        (Printf.sprintf "      \"id\": \"%s\",\n" (json_escape r.id));
      Buffer.add_string buf
        (Printf.sprintf "      \"title\": \"%s\",\n" (json_escape r.title));
      Buffer.add_string buf
        (Printf.sprintf "      \"paper_ref\": \"%s\",\n"
           (json_escape r.paper_ref));
      (match r.status with
      | Done -> Buffer.add_string buf "      \"status\": \"ok\",\n"
      | Failed { exn; backtrace } ->
          Buffer.add_string buf "      \"status\": \"failed\",\n";
          Buffer.add_string buf
            (Printf.sprintf "      \"error\": \"%s\",\n"
               (json_escape (Printexc.to_string exn)));
          Buffer.add_string buf
            (Printf.sprintf "      \"backtrace\": \"%s\",\n"
               (json_escape (Printexc.raw_backtrace_to_string backtrace))));
      Buffer.add_string buf
        (Printf.sprintf "      \"wall_ns\": %Ld,\n" r.wall_ns);
      Buffer.add_string buf
        (Printf.sprintf "      \"minor_words\": %.0f,\n" r.minor_words);
      Buffer.add_string buf
        (Printf.sprintf "      \"major_words\": %.0f,\n" r.major_words);
      Buffer.add_string buf
        (Printf.sprintf "      \"promoted_words\": %.0f,\n" r.promoted_words);
      (match r.profile with
      | Some s ->
          Buffer.add_string buf
            (Printf.sprintf "      \"profile\": %s,\n" (Obs.to_json s))
      | None -> ());
      Buffer.add_string buf
        (Printf.sprintf "      \"output_bytes\": %d\n"
           (String.length r.output));
      Buffer.add_string buf "    }")
    results;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
