(* The parallel runner: determinism across job counts, fault isolation,
   registry-order results, and JSON metrics shape. *)

open Sasos
open Sasos.Os

exception Boom of string

(* a cheap deterministic experiment: fresh machine, own seeded PRNG state,
   renders the final counters — exactly the shape of a registry entry *)
let synthetic_exp ?(seed = 0) i =
  {
    Experiments.Experiment.id = Printf.sprintf "syn%d" i;
    title = "runner determinism probe";
    paper_ref = "test";
    description = "small synthetic workload on a fresh PLB machine";
    run =
      (fun () ->
        let params =
          {
            Workloads.Synthetic.default with
            refs = 1_000;
            seed = 1 + seed + (1000 * i);
          }
        in
        let m, _ =
          Experiments.Experiment.run_on Machines.Plb Config.default
            (fun sys -> Workloads.Synthetic.run ~params sys)
        in
        String.concat "\n"
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%d" k v)
             (Metrics.fields m)));
  }

let raising_exp =
  {
    Experiments.Experiment.id = "raiser";
    title = "always raises";
    paper_ref = "test";
    description = "fault-isolation probe";
    run = (fun () -> raise (Boom "injected"));
  }

(* strip the timing/allocation fields so JSON comparison is "modulo
   timing", as the determinism guarantee states *)
let normalize (r : Runner.result) =
  {
    r with
    Runner.wall_ns = 0L;
    minor_words = 0.;
    major_words = 0.;
    promoted_words = 0.;
  }

let test_jobs_equivalence () =
  let exps = List.init 6 (fun i -> synthetic_exp i) in
  let r1 = Runner.run ~jobs:1 exps in
  let r4 = Runner.run ~jobs:4 exps in
  Alcotest.(check (list string))
    "ids in registry order"
    (List.map (fun e -> e.Experiments.Experiment.id) exps)
    (List.map (fun r -> r.Runner.id) r4);
  Alcotest.(check (list string))
    "per-experiment text identical"
    (List.map (fun r -> r.Runner.output) r1)
    (List.map (fun r -> r.Runner.output) r4);
  Alcotest.(check string) "report text identical" (Runner.report_text r1)
    (Runner.report_text r4);
  Alcotest.(check string) "JSON identical modulo timing"
    (Runner.json_of_results (List.map normalize r1))
    (Runner.json_of_results (List.map normalize r4))

let prop_jobs_equivalence =
  QCheck2.Test.make ~count:10
    ~name:"run ~jobs:1 and ~jobs:4 agree for any task list and seed"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 0 1_000))
    (fun (n, seed) ->
      let exps = List.init n (fun i -> synthetic_exp ~seed i) in
      let out jobs =
        List.map (fun r -> r.Runner.output) (Runner.run ~jobs exps)
      in
      out 1 = out 4)

let test_fault_isolation () =
  let exps =
    [ synthetic_exp 0; raising_exp; synthetic_exp 1; synthetic_exp 2 ]
  in
  let results = Runner.run ~jobs:4 exps in
  Alcotest.(check int) "all four reported" 4 (List.length results);
  let statuses =
    List.map
      (fun r -> match r.Runner.status with Runner.Done -> "ok" | _ -> "fail")
      results
  in
  Alcotest.(check (list string))
    "only the raiser failed"
    [ "ok"; "fail"; "ok"; "ok" ]
    statuses;
  let failed = List.nth results 1 in
  (match failed.Runner.status with
  | Runner.Failed { exn = Boom "injected"; _ } -> ()
  | _ -> Alcotest.fail "expected Failed (Boom \"injected\")");
  Alcotest.(check (option string))
    "error message recorded"
    (Some (Printexc.to_string (Boom "injected")))
    (Runner.error_message failed);
  Alcotest.(check int) "failures list" 1
    (List.length (Runner.failures results));
  let sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report notes the failure" true
    (sub failed.Runner.output "EXPERIMENT FAILED:");
  (* the failure section is deterministic, so full-report text is still
     byte-identical across job counts *)
  Alcotest.(check string) "report identical with failure"
    (Runner.report_text (Runner.run ~jobs:1 exps))
    (Runner.report_text results)

let test_registry_select () =
  (match Experiments.Registry.select [ "tag_overhead"; "micro_ops" ] with
  | Error e -> Alcotest.fail e
  | Ok exps ->
      (* registry order, not request order: micro_ops precedes tag_overhead *)
      Alcotest.(check (list string))
        "registry order kept"
        [ "micro_ops"; "tag_overhead" ]
        (List.map (fun e -> e.Experiments.Experiment.id) exps));
  match Experiments.Registry.select [ "micro_ops"; "nope" ] with
  | Ok _ -> Alcotest.fail "unknown id accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the id" true
        (String.length msg > 0
        && String.sub msg 0 (min 18 (String.length msg)) = "unknown experiment")

let test_real_experiments_parallel () =
  match Experiments.Registry.select [ "tag_overhead"; "micro_ops" ] with
  | Error e -> Alcotest.fail e
  | Ok exps ->
      let r1 = Runner.run ~jobs:1 exps in
      let r2 = Runner.run ~jobs:2 exps in
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (r.Runner.id ^ " ok")
            true
            (r.Runner.status = Runner.Done))
        r2;
      Alcotest.(check string) "registry subset text identical"
        (Runner.report_text r1) (Runner.report_text r2)

let test_json_shape () =
  let results = Runner.run ~jobs:2 [ synthetic_exp 0; raising_exp ] in
  let json = Runner.json_of_results ~jobs:2 results in
  let sub needle =
    let nh = String.length json and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub json i nn = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (sub needle))
    [
      "\"schema\": \"sasos-metrics/1\"";
      "\"jobs\": 2";
      "\"failed\": 1";
      "\"id\": \"syn0\"";
      "\"status\": \"ok\"";
      "\"status\": \"failed\"";
      "\"error\": ";
      "\"backtrace\": ";
      "\"wall_ns\": ";
      "\"minor_words\": ";
      "\"output_bytes\": ";
    ]

(* An experiment that allocates [alloc_blocks] fresh 99-field arrays:
   100 words each with the header, all on the minor heap. *)
let alloc_blocks = 500
let alloc_words = float_of_int (alloc_blocks * 100)

let allocating_exp i =
  {
    Experiments.Experiment.id = Printf.sprintf "alloc%d" i;
    title = "allocation probe";
    paper_ref = "test";
    description = "allocates a known number of minor-heap words";
    run =
      (fun () ->
        for _ = 1 to alloc_blocks do
          ignore (Sys.opaque_identity (Array.make 99 0))
        done;
        "");
  }

(* The count covers the experiment's own words plus about 140 of the
   runner's (header, clock reads), and is the same on every job count. *)
let test_minor_words () =
  let exps = [ allocating_exp 0; allocating_exp 1 ] in
  let words jobs =
    List.map (fun r -> r.Runner.minor_words) (Runner.run ~jobs exps)
  in
  let w1 = words 1 in
  List.iter
    (fun w ->
      if w < alloc_words || w > alloc_words +. 2_000. then
        Alcotest.failf "minor_words %.0f, expected %.0f to %.0f" w alloc_words
          (alloc_words +. 2_000.))
    w1;
  Alcotest.(check (list (float 0.))) "same count at jobs 1 and 2" w1 (words 2)

let test_bad_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Runner.run: jobs must be >= 1") (fun () ->
      ignore (Runner.run ~jobs:0 []))

(* map_pool_n must agree with map_pool on the same work for every jobs /
   chunk combination, including empty and chunk-larger-than-n shapes. *)
let prop_map_pool_n_lockstep =
  QCheck.Test.make ~count:60 ~name:"map_pool_n lockstep vs map_pool"
    QCheck.(
      quad (int_bound 600) (int_range 1 6) (int_range 1 128) small_int)
    (fun (n, jobs, chunk, salt) ->
      let f i = (i * 31) lxor salt in
      let expect = Runner.map_pool ~jobs f (List.init n (fun i -> i)) in
      let got =
        Array.to_list (Runner.map_pool_n ~jobs ~chunk ~init:0 ~n f)
      in
      let got_default =
        Array.to_list (Runner.map_pool_n ~jobs ~init:0 ~n f)
      in
      expect = got && expect = got_default)

let test_map_pool_n_bad_args () =
  Alcotest.check_raises "chunk=0 rejected"
    (Invalid_argument "Pool.map_pool_n: chunk must be >= 1") (fun () ->
      ignore (Runner.map_pool_n ~chunk:0 ~init:0 ~n:3 (fun i -> i)));
  Alcotest.check_raises "n<0 rejected"
    (Invalid_argument "Pool.map_pool_n: n must be >= 0") (fun () ->
      ignore (Runner.map_pool_n ~init:0 ~n:(-1) (fun i -> i)));
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.map_pool_n: jobs must be >= 1") (fun () ->
      ignore (Runner.map_pool_n ~jobs:0 ~init:0 ~n:3 (fun i -> i)))

let suite =
  [
    Alcotest.test_case "jobs=1 vs jobs=4 byte-identical" `Quick
      test_jobs_equivalence;
    Qprop.to_alcotest prop_jobs_equivalence;
    Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
    Alcotest.test_case "registry select" `Quick test_registry_select;
    Alcotest.test_case "real experiments in parallel" `Quick
      test_real_experiments_parallel;
    Alcotest.test_case "JSON metrics shape" `Quick test_json_shape;
    Alcotest.test_case "minor_words counts the experiment's allocation"
      `Quick test_minor_words;
    Alcotest.test_case "jobs < 1 rejected" `Quick test_bad_jobs;
    Qprop.to_alcotest prop_map_pool_n_lockstep;
    Alcotest.test_case "map_pool_n bad args rejected" `Quick
      test_map_pool_n_bad_args;
  ]
