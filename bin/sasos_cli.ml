(* sasos command-line interface.

   sasos list                      -- experiments and workloads
   sasos run <experiment-id>...    -- run experiments (default: all)
   sasos workload <name> [-m MACHINE] -- run one workload, dump metrics
   sasos info                      -- geometry / cost-model defaults *)

open Cmdliner

let list_cmd =
  let doc = "List available experiments and workloads." in
  let run () =
    print_endline "Experiments (paper artifacts):";
    List.iter
      (fun e ->
        Printf.printf "  %-14s %-22s %s\n" e.Sasos.Experiments.Experiment.id
          ("[" ^ e.Sasos.Experiments.Experiment.paper_ref ^ "]")
          e.Sasos.Experiments.Experiment.title)
      Sasos.Experiments.Registry.all;
    print_endline "\nWorkloads:";
    List.iter
      (fun w ->
        Printf.printf "  %-14s %s%s\n" w.Sasos.Workloads.Registry.name
          w.Sasos.Workloads.Registry.description
          (match w.Sasos.Workloads.Registry.table1_row with
          | Some r -> "  (Table 1: " ^ r ^ ")"
          | None -> ""))
      Sasos.Workloads.Registry.all;
    print_endline "\nMachines:";
    List.iter
      (fun (n, _) -> Printf.printf "  %s\n" n)
      Sasos.Machines.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run experiments by id (all when none given)." in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  let run ids =
    match ids with
    | [] ->
        print_string (Sasos.Experiments.Registry.run_all ());
        `Ok ()
    | ids ->
        let rec go = function
          | [] -> `Ok ()
          | id :: rest -> begin
              match Sasos.Experiments.Registry.find id with
              | None ->
                  `Error
                    ( false,
                      Printf.sprintf "unknown experiment %S (try 'sasos list')"
                        id )
              | Some e ->
                  print_string
                    (Sasos.Experiments.Experiment.header e
                    ^ e.Sasos.Experiments.Experiment.run ());
                  print_newline ();
                  go rest
            end
        in
        go ids
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(ret (const run $ ids))

let machine_conv =
  let parse s =
    match Sasos.Machines.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown machine %S" s))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (Sasos.Machines.to_string v))

let engine_conv =
  let parse s =
    match Sasos.Engine.of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown engine %S (scalar|batch)" s))
  in
  Arg.conv
    ( parse,
      fun fmt e -> Format.pp_print_string fmt (Sasos.Engine.to_string e) )

(* shared by report/check/profile: applied before any machine or worker
   domain exists, so worker domains spawned afterwards observe it *)
let engine_term =
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ] ~docv:"scalar|batch"
        ~doc:
          "Execution engine: $(b,scalar) (interpret operations directly, \
           the default) or $(b,batch) (compile workloads/scripts into a \
           flat int-array op stream and run the decode loop). Output must \
           be identical; the lockstep properties and corpus replay drive \
           both.")

let set_engine engine = Option.iter Sasos.Engine.set_default_engine engine

let purge_conv =
  let parse s =
    match Sasos.Smp.purge_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Sasos.Smp.purge_to_string p))

(* shared by report/check/profile/scale: the multicore layer. Like
   --engine, applied before any machine or worker domain exists. *)
let smp_term =
  let cores =
    Arg.(
      value & opt int 1
      & info [ "cores" ] ~docv:"N"
          ~doc:
            "Simulated cores (1..64). Above 1 every machine is lifted to \
             the multicore shootdown layer: per-core private protection \
             structures over the shared OS tables, a deterministic \
             seeded-interleaving scheduler, and an inter-processor purge \
             protocol selected by $(b,--purge). At 1 (the default) the \
             single-core machine runs unchanged.")
  in
  let purge =
    Arg.(
      value
      & opt (some purge_conv) None
      & info [ "purge" ] ~docv:"POLICY"
          ~doc:
            (Printf.sprintf
               "Shootdown purge policy at --cores > 1: %s. $(b,eager) \
                broadcasts a synchronous IPI round per revocation; \
                $(b,lazy) lets remote cores serve version-stamped stale \
                entries until a use validates them (a stale trap, never \
                granting above the pre-revocation rights); $(b,batched) \
                queues revocations and flushes one round per --ipi-budget."
               Sasos.Smp.purge_names_doc))
  in
  let ipi_cost =
    Arg.(
      value
      & opt (some int) None
      & info [ "ipi-cost" ] ~docv:"K"
          ~doc:
            "Override the per-target IPI delivery cost in cycles (the \
             cost model's ipi_deliver; initiation and ack-barrier costs \
             are unchanged).")
  in
  let ipi_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "ipi-budget" ] ~docv:"B"
          ~doc:
            "Batched purge flush threshold: one shootdown round per \
             $(docv) queued revocations (default 8).")
  in
  Term.(
    const (fun c p k b -> (c, p, k, b)) $ cores $ purge $ ipi_cost $ ipi_budget)

(* [None] on success, [Some msg] on a bad combination *)
let apply_smp (cores, purge, ipi_cost, ipi_budget) =
  if cores < 1 || cores > 64 then Some "--cores must be in 1..64"
  else if match ipi_cost with Some k -> k < 0 | None -> false then
    Some "--ipi-cost must be >= 0"
  else if match ipi_budget with Some b -> b < 1 | None -> false then
    Some "--ipi-budget must be >= 1"
  else begin
    Sasos.Smp.set_cores cores;
    Option.iter Sasos.Smp.set_purge purge;
    Option.iter Sasos.Smp.set_ipi_cost ipi_cost;
    Option.iter Sasos.Smp.set_ipi_budget ipi_budget;
    None
  end

(* configuration flags shared by the workload command *)
let config_term =
  let cpus =
    Arg.(value & opt int 1 & info [ "cpus" ] ~docv:"N"
           ~doc:"Simulated processors (shootdowns above 1).")
  in
  let plb_entries =
    Arg.(value & opt int 64 & info [ "plb-entries" ] ~docv:"N")
  in
  let tlb_entries =
    Arg.(value & opt int 64 & info [ "tlb-entries" ] ~docv:"N")
  in
  let pg_entries =
    Arg.(value & opt int 16 & info [ "pg-entries" ] ~docv:"N"
           ~doc:"Page-group cache size (4 = stock PA-RISC).")
  in
  let l2_kb =
    Arg.(value & opt int 0 & info [ "l2-kb" ] ~docv:"KB"
           ~doc:"Unified second-level cache size; 0 disables.")
  in
  let prot_shift =
    Arg.(value & opt int 12 & info [ "prot-shift" ] ~docv:"LOG2"
           ~doc:"Protection page size as log2 bytes (12 = 4 KB).")
  in
  let eager =
    Arg.(value & opt int 0 & info [ "pg-eager" ] ~docv:"N"
           ~doc:"Page-groups eagerly reloaded on a domain switch.")
  in
  let build cpus plb_entries tlb_entries pg_entries l2_kb prot_shift eager =
    Sasos.Config.v
      ~geom:(Sasos.Geometry.v ~prot_shift ())
      ~cpus ~plb_sets:1 ~plb_ways:plb_entries ~tlb_sets:1
      ~tlb_ways:tlb_entries ~pg_entries ~pg_eager_reload:eager
      ~l2_bytes:(l2_kb * 1024) ()
  in
  Term.(
    const build $ cpus $ plb_entries $ tlb_entries $ pg_entries $ l2_kb
    $ prot_shift $ eager)

let workload_cmd =
  let doc = "Run one workload on one machine and print its metrics." in
  let wname =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let machine =
    Arg.(
      value
      & opt machine_conv Sasos.Machines.Plb
      & info [ "m"; "machine" ] ~docv:"MACHINE"
          ~doc:("Machine model: " ^ Sasos.Machines.names_doc ^ "."))
  in
  let run wname machine config =
    match Sasos.Workloads.Registry.find wname with
    | None ->
        `Error
          (false, Printf.sprintf "unknown workload %S (try 'sasos list')" wname)
    | Some w ->
        let sys = Sasos.Machines.make machine config in
        w.Sasos.Workloads.Registry.run sys;
        let m = Sasos.System_ops.metrics sys in
        Printf.printf "workload=%s machine=%s\n" wname
          (Sasos.Machines.to_string machine);
        List.iter
          (fun (k, v) -> if v <> 0 then Printf.printf "  %-22s %d\n" k v)
          (Sasos.Metrics.fields m);
        `Ok ()
  in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(ret (const run $ wname $ machine $ config_term))

let trace_record_cmd =
  let doc =
    "Run a workload through the trace recorder and save the trace."
  in
  let wname =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace output file.")
  in
  let machine =
    Arg.(
      value
      & opt machine_conv Sasos.Machines.Plb
      & info [ "m"; "machine" ] ~docv:"MACHINE"
          ~doc:"Machine the workload runs on while recording.")
  in
  let run wname out machine =
    match Sasos.Workloads.Registry.find wname with
    | None -> `Error (false, Printf.sprintf "unknown workload %S" wname)
    | Some w ->
        let inner = Sasos.Machines.make machine Sasos.Config.default in
        let r = Sasos.Trace.Recorder.wrap inner in
        let sys =
          Sasos.Os.System_intf.Packed
            ( (module Sasos.Trace.Recorder : Sasos.Os.System_intf.SYSTEM
                with type t = Sasos.Trace.Recorder.t),
              r )
        in
        w.Sasos.Workloads.Registry.run sys;
        let events = Sasos.Trace.Recorder.events r in
        Sasos.Trace.Store.save out
          ~header:
            (Printf.sprintf "sasos trace: workload=%s machine=%s" wname
               (Sasos.Machines.to_string machine))
          events;
        Format.printf "%a@.-> %s@." Sasos.Trace.Stats.pp
          (Sasos.Trace.Stats.of_events events)
          out;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(ret (const run $ wname $ out $ machine))

let trace_replay_cmd =
  let doc = "Replay a saved trace on a machine and print its metrics." in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let machine =
    Arg.(
      value
      & opt machine_conv Sasos.Machines.Plb
      & info [ "m"; "machine" ] ~docv:"MACHINE")
  in
  let run file machine =
    match Sasos.Trace.Store.load file with
    | Error msg -> `Error (false, msg)
    | Ok events -> begin
        let sys = Sasos.Machines.make machine Sasos.Config.default in
        match Sasos.Trace.Player.replay events sys with
        | Error { at; event; reason } ->
            `Error
              ( false,
                Printf.sprintf "event %d (%s): %s" at
                  (Sasos.Trace.Event.to_line event)
                  reason )
        | Ok outcomes ->
            let faults =
              List.length
                (List.filter
                   (( = ) Sasos.Addr.Access.Protection_fault)
                   outcomes)
            in
            Printf.printf "replayed %d events on %s: %d accesses, %d faults\n"
              (List.length events)
              (Sasos.Machines.to_string machine)
              (List.length outcomes) faults;
            List.iter
              (fun (k, v) -> if v <> 0 then Printf.printf "  %-22s %d\n" k v)
              (Sasos.Metrics.fields (Sasos.System_ops.metrics sys));
            `Ok ()
      end
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(ret (const run $ file $ machine))

let trace_stats_cmd =
  let doc = "Print summary statistics of a saved trace." in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run file =
    match Sasos.Trace.Store.load file with
    | Error msg -> `Error (false, msg)
    | Ok events ->
        Format.printf "%a@." Sasos.Trace.Stats.pp
          (Sasos.Trace.Stats.of_events events);
        `Ok ()
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run $ file))

let trace_cmd =
  let doc = "Record, replay and inspect operation traces." in
  Cmd.group (Cmd.info "trace" ~doc)
    [ trace_record_cmd; trace_replay_cmd; trace_stats_cmd ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* one flag-wiring helper shared by check/scale/top (report keeps only
   --profile): the observability export triple. Any export path implies
   profiling, which [obs_flags_profiling] resolves. *)
let obs_flags_term =
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Run under the observability collector and print the merged \
             cycle-attribution table after the report.")
  in
  let obs_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-json" ] ~docv:"FILE"
          ~doc:
            "Write the sasos-obs/1 profile JSON to $(docv) (implies \
             profiling).")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON of the profiled run to $(docv) \
             (open in Perfetto or chrome://tracing; implies profiling).")
  in
  Term.(const (fun p j c -> (p, j, c)) $ profile $ obs_json $ chrome)

let obs_flags_profiling (profile, obs_json, chrome) =
  profile || obs_json <> None || chrome <> None

(* shared by profile/report/check: write the chosen observability exports *)
let emit_profile ?(table = false) ?out ?json ?chrome summary =
  (match (table, out) with
  | _, Some path -> write_file path (Sasos.Obs.render_table summary)
  | true, None -> print_string (Sasos.Obs.render_table summary)
  | false, None -> ());
  Option.iter
    (fun path -> write_file path (Sasos.Obs.to_json ~indent:true summary))
    json;
  Option.iter (fun path -> write_file path (Sasos.Obs.to_chrome summary)) chrome

let profile_cmd =
  let doc =
    "Profile a run: attribute simulated cycles to operations and \
     experiment/trace phases per machine model, sample miss ratios and \
     occupancy over simulated time, and export the result as a table, \
     sasos-obs/1 JSON, or a Chrome trace_event file (load with Perfetto / \
     chrome://tracing). Give one of --experiment (registry ids, profiled \
     through the parallel runner; output is byte-identical for any --jobs \
     value), --workload with --machine and the usual geometry flags, or \
     --shards (the sharded scale rig under per-shard collectors). All \
     timestamps are simulated cycles, so output is deterministic."
  in
  let experiments =
    Arg.(
      value
      & opt (some string) None
      & info [ "experiment" ] ~docv:"ID1,ID2"
          ~doc:"Comma-separated experiment ids to run under the profiler.")
  in
  let wname =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"WORKLOAD"
          ~doc:"Workload to run under the profiler (see 'sasos list').")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Profile the sharded scale rig instead: run 'sasos scale' \
             defaults with $(docv) shards under per-shard collectors (one \
             Chrome track per shard, cross-shard flow events).")
  in
  let machine =
    Arg.(
      value
      & opt machine_conv Sasos.Machines.Plb
      & info [ "m"; "machine" ] ~docv:"MACHINE"
          ~doc:"Machine model for --workload and --shards modes.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for --experiment and --shards modes.")
  in
  let sample =
    Arg.(
      value & opt int 1000
      & info [ "sample" ] ~docv:"N"
          ~doc:"Record one time-series sample every $(docv) accesses.")
  in
  let ring =
    Arg.(
      value & opt int 512
      & info [ "ring" ] ~docv:"N"
          ~doc:"Ring-buffer capacity: keep the last $(docv) samples.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the attribution table to $(docv) instead of stdout.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the sasos-obs/1 JSON summary to $(docv).")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON file to $(docv) (open in \
             Perfetto or chrome://tracing).")
  in
  let run engine smp experiments wname shards machine jobs sample ring
      out json chrome config =
    set_engine engine;
    match apply_smp smp with
    | Some msg -> `Error (false, msg)
    | None ->
    if jobs < 1 then `Error (false, "--jobs must be >= 1")
    else if sample < 1 then `Error (false, "--sample must be >= 1")
    else if ring < 1 then `Error (false, "--ring must be >= 1")
    else
      let summary =
        match (experiments, wname, shards) with
        | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
            Error "give only one of --experiment, --workload or --shards"
        | None, None, None ->
            Error "give one of --experiment, --workload or --shards"
        | None, None, Some shards -> (
            let cfg = { Sasos.Shard.default with shards; variant = machine } in
            match
              Sasos.Shard.run ~jobs ~profile:true ~sample_every:sample
                ~ring_capacity:ring cfg
            with
            | exception Invalid_argument msg -> Error msg
            | r -> (
                match r.Sasos.Shard.profile with
                | Some s -> Ok s
                | None -> Error "no profile collected"))
        | Some ids, None, None -> (
            match
              String.split_on_char ',' ids
              |> List.map String.trim
              |> List.filter (fun id -> id <> "")
            with
            | [] -> Error "--experiment requires at least one id"
            | ids -> (
                match Sasos.Experiments.Registry.select ids with
                | Error msg -> Error msg
                | Ok exps -> (
                    let results =
                      Sasos.Runner.run ~jobs ~profile:true ~sample_every:sample
                        ~ring_capacity:ring exps
                    in
                    match Sasos.Runner.failures results with
                    | r :: _ ->
                        Error
                          (Printf.sprintf "experiment %s failed: %s"
                             r.Sasos.Runner.id
                             (Option.value ~default:"?"
                                (Sasos.Runner.error_message r)))
                    | [] -> (
                        match Sasos.Runner.merged_profile results with
                        | Some s -> Ok s
                        | None -> Error "no profile collected"))))
        | None, Some wname, None -> (
            match Sasos.Workloads.Registry.find wname with
            | None ->
                Error
                  (Printf.sprintf "unknown workload %S (try 'sasos list')"
                     wname)
            | Some w ->
                let collector =
                  Sasos.Obs.create ~sample_every:sample ~ring_capacity:ring ()
                in
                Sasos.Obs.with_ambient collector (fun () ->
                    let sys = Sasos.Machines.make machine config in
                    w.Sasos.Workloads.Registry.run sys);
                (* at --cores > 1 the smp layer ran one collector per
                   core: merge them as parallel timelines (one Chrome
                   process per core, shootdown flow arrows between
                   them), exactly like per-shard profiles *)
                (match Sasos.Smp.last () with
                | Some h when h.Sasos.Smp.h_cores > 1 -> (
                    match h.Sasos.Smp.h_summaries () with
                    | [] -> Ok (Sasos.Obs.summarize collector)
                    | per_core -> Ok (Sasos.Obs.merge_tracks per_core))
                | _ -> Ok (Sasos.Obs.summarize collector)))
      in
      match summary with
      | Error msg -> `Error (false, msg)
      | Ok s -> (
          match emit_profile ~table:true ?out ?json ?chrome s with
          | exception Sys_error msg -> `Error (false, msg)
          | () ->
              Option.iter (Printf.printf "wrote attribution table to %s\n") out;
              Option.iter (Printf.printf "wrote obs JSON to %s\n") json;
              Option.iter (Printf.printf "wrote Chrome trace to %s\n") chrome;
              `Ok ())
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      ret
        (const run $ engine_term $ smp_term $ experiments
        $ wname $ shards $ machine $ jobs $ sample $ ring $ out $ json
        $ chrome $ config_term))

let report_cmd =
  let doc =
    "Run the experiment registry (in parallel with --jobs) and write the \
     reproduction report to a file. A raising experiment is recorded as \
     failed in place of its report section; the rest of the registry still \
     completes. Report text is byte-identical for any --jobs value."
  in
  let out =
    Arg.(
      value
      & opt string "report.txt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Report output file.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains running experiments concurrently.")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"ID1,ID2"
          ~doc:"Comma-separated experiment ids; default is the whole registry.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write machine-readable metrics (per-experiment status, \
             wall-clock time, allocation counters) to $(docv).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Run each experiment under the observability collector, print \
             the merged cycle-attribution table, and embed a per-experiment \
             profile block in the --json metrics.")
  in
  let run engine smp out jobs only json profile =
    set_engine engine;
    match apply_smp smp with
    | Some msg -> `Error (false, msg)
    | None ->
    if jobs < 1 then `Error (false, "--jobs must be >= 1")
    else
      let selection =
        match only with
        | None -> Ok Sasos.Experiments.Registry.all
        | Some s -> (
            match
              String.split_on_char ',' s
              |> List.map String.trim
              |> List.filter (fun id -> id <> "")
            with
            | [] -> Error "--only requires at least one experiment id"
            | ids -> Sasos.Experiments.Registry.select ids)
      in
      match selection with
      | Error msg -> `Error (false, msg)
      | Ok exps -> (
          let results = Sasos.Runner.run ~jobs ~profile exps in
          match
            write_file out (Sasos.Runner.report_text results);
            Option.iter
              (fun path ->
                write_file path (Sasos.Runner.json_of_results ~jobs results))
              json
          with
          | exception Sys_error msg -> `Error (false, msg)
          | () ->
              List.iter
                (fun r ->
                  Printf.printf "  %-16s %8.1f ms  %s\n" r.Sasos.Runner.id
                    (Int64.to_float r.Sasos.Runner.wall_ns /. 1e6)
                    (match Sasos.Runner.error_message r with
                    | None -> "ok"
                    | Some e -> "FAILED: " ^ e))
                results;
              let failed = List.length (Sasos.Runner.failures results) in
              Printf.printf
                "wrote %d experiments (%d failed, jobs=%d) to %s%s\n"
                (List.length results) failed jobs out
                (match json with Some p -> ", metrics to " ^ p | None -> "");
              Option.iter (fun s -> print_string (Sasos.Obs.render_table s))
                (Sasos.Runner.merged_profile results);
              `Ok ())
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(
      ret
        (const run $ engine_term $ smp_term $ out $ jobs
        $ only $ json $ profile))

let check_cmd =
  let doc =
    "Differential conformance check: replay seed-reproducible random \
     operation scripts on every machine model and compare each machine's \
     access outcomes against a pure reference oracle (plus each machine's \
     hardware fast path against its own OS truth). Failing scripts are \
     minimized deterministically; minimized counterexamples can be saved \
     into the replay corpus (test/corpus/*.trace)."
  in
  let ops =
    Arg.(value & opt int 200
         & info [ "ops" ] ~docv:"N" ~doc:"Operations per script.")
  in
  let scripts =
    Arg.(value & opt int 100
         & info [ "scripts" ] ~docv:"M" ~doc:"Number of scripts.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Run seed.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"J"
             ~doc:"Worker domains checking script batches concurrently.")
  in
  let machines =
    (* the machine list in the doc string is generated from Sys_select so
       a new machine shows up here without a by-hand edit *)
    Arg.(value & opt_all machine_conv []
         & info [ "m"; "machine" ] ~docv:"MACHINE"
             ~doc:
               (Printf.sprintf
                  "Check only $(docv) (repeatable; default: every model). \
                   Known machines: %s." Sasos.Machines.names_doc))
  in
  let domains =
    Arg.(value & opt int Sasos.Check.Op.default_geom.Sasos.Check.Op.domains
         & info [ "domains" ] ~docv:"D" ~doc:"Protection domains per script.")
  in
  let segments =
    Arg.(value & opt int Sasos.Check.Op.default_geom.Sasos.Check.Op.segments
         & info [ "segments" ] ~docv:"S" ~doc:"Segments per script.")
  in
  let pages =
    Arg.(value
         & opt int Sasos.Check.Op.default_geom.Sasos.Check.Op.pages_per_seg
         & info [ "pages" ] ~docv:"P" ~doc:"Pages per segment.")
  in
  let mutate =
    (* deliberately planted bug, used to validate that the harness detects
       and shrinks divergences; hidden from the synopsis *)
    Arg.(value & opt (some string) None
         & info [ "mutate" ] ~docv:"NAME"
             ~doc:
               "Plant a deliberate semantic bug on the machine side (the \
                oracle still sees the full script); the run must FAIL. \
                Known names: skip-detach, skip-grant-revoke, \
                skip-protect-all, skip-protect-segment, skip-switch.")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:
               "Write the first minimized counterexample as a corpus trace \
                to $(docv).")
  in
  let corpus =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:
               "Instead of generating scripts, replay every *.trace corpus \
                file in $(docv) on all machines and compare against the \
                recorded outcomes.")
  in
  let run engine smp ops scripts seed jobs machines domains segments
      pages mutate save corpus obs_flags =
    let profile, obs_json, chrome = obs_flags in
    set_engine engine;
    match apply_smp smp with
    | Some msg -> `Error (false, msg)
    | None ->
    let variants =
      match machines with
      | [] -> None
      | ms ->
          Some
            (List.filter (fun (_, v) -> List.mem v ms) Sasos.Machines.all)
    in
    match corpus with
    | Some dir -> begin
        match Sys.readdir dir with
        | exception Sys_error msg -> `Error (false, msg)
        | entries ->
            let files =
              Array.to_list entries
              |> List.filter (fun f -> Filename.check_suffix f ".trace")
              |> List.sort compare
              |> List.map (Filename.concat dir)
            in
            let bad =
              List.filter_map
                (fun f ->
                  match Sasos.Check.Corpus.replay_file f with
                  | Ok () ->
                      Printf.printf "  ok   %s\n" f;
                      None
                  | Error msg ->
                      Printf.printf "  FAIL %s: %s\n" f msg;
                      Some f)
                files
            in
            Printf.printf "corpus: %d file(s), %d failing\n"
              (List.length files) (List.length bad);
            if bad = [] then `Ok () else Stdlib.exit 1
      end
    | None ->
        if jobs < 1 then `Error (false, "--jobs must be >= 1")
        else begin
          match
            match mutate with
            | None -> Ok None
            | Some name -> (
                match Sasos.Check.Mutate.find name with
                | Some m -> Ok (Some m)
                | None ->
                    Error
                      (Printf.sprintf "unknown mutation %S (known: %s)" name
                         (String.concat ", " (Sasos.Check.Mutate.names ()))))
          with
          | Error msg -> `Error (false, msg)
          | Ok mutation ->
          let geom =
            {
              Sasos.Check.Op.domains;
              segments;
              pages_per_seg = pages;
            }
          in
          let profiling = obs_flags_profiling obs_flags in
          let report =
            Sasos.Check.Harness.run ~jobs ~profile:profiling ?mutation
              ?variants ~geom ~ops ~scripts ~seed ()
          in
          print_string (Sasos.Check.Harness.report_text report);
          (match report.Sasos.Check.Harness.profile with
          | Some s -> (
              match
                emit_profile ~table:profile ?json:obs_json ?chrome:chrome s
              with
              | exception Sys_error msg -> prerr_endline msg
              | () ->
                  Option.iter (Printf.printf "wrote obs JSON to %s\n") obs_json;
                  Option.iter
                    (Printf.printf "wrote Chrome trace to %s\n")
                    chrome)
          | None -> ());
          (match (save, report.Sasos.Check.Harness.counterexamples) with
          | Some path, cex :: _ ->
              Sasos.Check.Corpus.save ~path
                ~note:
                  (Printf.sprintf
                     "script %d, run seed %d, script seed %d%s; failure: %s"
                     cex.Sasos.Check.Harness.script_index seed
                     cex.Sasos.Check.Harness.script_seed
                     (match mutate with
                     | Some m -> ", mutation " ^ m
                     | None -> "")
                     (match cex.Sasos.Check.Harness.failure with
                     | Sasos.Check.Harness.Outcome_mismatch { machine; _ }
                     | Sasos.Check.Harness.Machine_crash { machine; _ }
                     | Sasos.Check.Harness.Hw_over_allow { machine } ->
                         machine))
                geom cex.Sasos.Check.Harness.script
                ~expected:cex.Sasos.Check.Harness.expected;
              Printf.printf "saved counterexample to %s\n" path
          | Some _, [] -> ()
          | None, _ -> ());
          if Sasos.Check.Harness.failed report then Stdlib.exit 1
          else `Ok ()
        end
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      ret
        (const run $ engine_term $ smp_term $ ops $ scripts
        $ seed $ jobs $ machines $ domains $ segments $ pages $ mutate
        $ save $ corpus $ obs_flags_term))

(* one term builder behind both `sasos scale` and `sasos top` (the
   latter is scale with the live dashboard always on) *)
let scale_cmd_make ~name ~doc ~live_default =
  let d = Sasos.Shard.default in
  let popt name docv doc default =
    Arg.(value & opt int default & info [ name ] ~docv ~doc)
  in
  let domains =
    popt "domains" "N" "Total protection domains across all shards."
      d.Sasos.Shard.domains
  in
  let pages =
    popt "pages" "N"
      "Total segment pages across all shards (rounded up to whole segments)."
      d.Sasos.Shard.pages
  in
  let shards = popt "shards" "S" "Number of shards (machine instances)." d.Sasos.Shard.shards in
  let rounds = popt "rounds" "N" "Simulation rounds." d.Sasos.Shard.rounds in
  let active =
    popt "active" "N" "Active-domain window size per round." d.Sasos.Shard.active
  in
  let burst =
    popt "burst" "N" "Accesses per active domain per round." d.Sasos.Shard.burst
  in
  let rotate =
    popt "rotate" "N"
      "Window advance per round pair (0 = stationary working set)."
      d.Sasos.Shard.rotate
  in
  let churn =
    Arg.(
      value
      & opt float d.Sasos.Shard.churn
      & info [ "churn" ] ~docv:"P"
          ~doc:
            "Per-(active domain, round pair) probability of a cross-shard \
             attach+detach of a random global segment.")
  in
  let pages_per_seg =
    popt "pages-per-seg" "N" "Pages per segment." d.Sasos.Shard.pages_per_seg
  in
  let segs_per_dom =
    popt "segs-per-dom" "N" "Local segments attached per domain at setup."
      d.Sasos.Shard.segs_per_dom
  in
  let theta =
    Arg.(
      value
      & opt float d.Sasos.Shard.theta
      & info [ "theta" ] ~docv:"T"
          ~doc:"Zipf skew of page selection within a segment.")
  in
  let tlb = popt "tlb-entries" "N" "Per-shard TLB entries." d.Sasos.Shard.tlb_entries in
  let plb = popt "plb-entries" "N" "Per-shard PLB entries." d.Sasos.Shard.plb_entries in
  let pg = popt "pg-entries" "N" "Per-shard page-group cache entries." d.Sasos.Shard.pg_entries in
  let keys = popt "pk-keys" "N" "Per-shard protection keys." d.Sasos.Shard.pk_keys in
  let frames = popt "frames" "N" "Physical frames per shard." d.Sasos.Shard.frames in
  let machine =
    Arg.(
      value
      & opt machine_conv d.Sasos.Shard.variant
      & info [ "m"; "machine" ] ~docv:"MACHINE"
          ~doc:("Machine model per shard: " ^ Sasos.Machines.names_doc ^ "."))
  in
  let seed = popt "seed" "S" "Run seed." d.Sasos.Shard.seed in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains running shard phases concurrently (output is \
             byte-identical for any value).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the scale report to $(docv) instead of stdout.")
  in
  let sample =
    Arg.(
      value & opt int 1000
      & info [ "sample" ] ~docv:"N"
          ~doc:
            "Per-shard sampler stride: one time-series point every $(docv) \
             accesses on each shard (profiled runs).")
  in
  let ring =
    Arg.(
      value & opt int 512
      & info [ "ring" ] ~docv:"N"
          ~doc:"Per-shard ring-buffer capacity: keep the last $(docv) samples.")
  in
  let live =
    Arg.(
      value
      & opt ~vopt:(Some 8) (some int) None
      & info [ "live" ] ~docv:"N"
          ~doc:
            "Refresh a per-shard terminal dashboard (throughput, miss \
             ratios, backlog sparkline) every $(docv) rounds (default 8 \
             when given without a value) while the simulation runs. \
             Implies profiling.")
  in
  let run smp domains pages shards rounds active burst rotate churn
      pages_per_seg segs_per_dom theta tlb plb pg keys frames machine seed
      jobs out obs_flags sample ring live =
    let profile, obs_json, chrome = obs_flags in
    let live = match live with Some n -> Some n | None -> live_default in
    match apply_smp smp with
    | Some msg -> `Error (false, msg)
    | None ->
    if jobs < 1 then `Error (false, "--jobs must be >= 1")
    else if sample < 1 then `Error (false, "--sample must be >= 1")
    else if ring < 1 then `Error (false, "--ring must be >= 1")
    else if (match live with Some n -> n < 1 | None -> false) then
      `Error (false, "--live must be >= 1")
    else
      let cfg =
        {
          Sasos.Shard.domains;
          pages;
          shards;
          rounds;
          active;
          burst;
          rotate;
          churn;
          pages_per_seg;
          segs_per_dom;
          theta;
          tlb_entries = tlb;
          plb_entries = plb;
          pg_entries = pg;
          pk_keys = keys;
          frames;
          variant = machine;
          seed;
        }
      in
      (* the dashboard reads the ring sampler, so live implies profiling *)
      let profiling = obs_flags_profiling obs_flags || live <> None in
      let simulate () =
        let t =
          Sasos.Shard.prepare ~jobs ~profile:profiling ~sample_every:sample
            ~ring_capacity:ring cfg
        in
        (match live with
        | None -> Sasos.Shard.rounds ~jobs t cfg.Sasos.Shard.rounds
        | Some every ->
            (* repaint in place on a terminal; plain frame stream when
               redirected, so logs stay readable *)
            let ansi = Unix.isatty Unix.stdout in
            let rec go remaining =
              if remaining > 0 then begin
                let n = min every remaining in
                Sasos.Shard.rounds ~jobs t n;
                if ansi then print_string "\027[2J\027[H";
                print_string
                  (Sasos.Dash.render
                     ~round:(Sasos.Shard.rounds_run t)
                     ~rounds:cfg.Sasos.Shard.rounds
                     (Sasos.Shard.live_rows t));
                flush stdout;
                go (remaining - n)
              end
            in
            go cfg.Sasos.Shard.rounds);
        Sasos.Shard.report t
      in
      match simulate () with
      | exception Invalid_argument msg -> `Error (false, msg)
      | r -> (
          let text = Sasos.Shard.render r in
          match
            (match out with
            | Some path -> write_file path text
            | None -> print_string text);
            Option.iter
              (fun s -> emit_profile ~table:profile ?json:obs_json ?chrome s)
              r.Sasos.Shard.profile
          with
          | exception Sys_error msg -> `Error (false, msg)
          | () ->
              Option.iter (Printf.printf "wrote scale report to %s\n") out;
              Option.iter (Printf.printf "wrote obs JSON to %s\n") obs_json;
              Option.iter (Printf.printf "wrote Chrome trace to %s\n") chrome;
              `Ok ())
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      ret
        (const run $ smp_term $ domains $ pages $ shards
        $ rounds $ active $ burst $ rotate $ churn $ pages_per_seg
        $ segs_per_dom $ theta $ tlb $ plb $ pg $ keys $ frames $ machine
        $ seed $ jobs $ out $ obs_flags_term $ sample $ ring $ live))

let scale_cmd =
  scale_cmd_make ~name:"scale" ~live_default:None
    ~doc:
      "Sharded many-domain simulation: partition the domain/segment \
       population across independent machine instances (one inverted page \
       table, segment/capability table and protection structures per shard), \
       drive an active window of domains with Zipf traffic each round, and \
       exchange cross-shard attach/detach churn through a deterministic \
       mailbox between rounds. Aggregate and per-shard metrics are \
       byte-identical for any --jobs value. Scales to millions of domains \
       (see bench/scale.exe). With --profile/--obs-json/--chrome-out each \
       shard runs under its own collector: the Chrome trace has one process \
       per shard with round phase spans and cross-shard message flow arrows."
let top_cmd =
  scale_cmd_make ~name:"top" ~live_default:(Some 4)
    ~doc:
      "Live dashboard over the sharded simulation: 'sasos scale' with the \
       per-shard terminal dashboard always on (refresh every 4 rounds \
       unless --live overrides), showing per-shard throughput, miss ratios, \
       fault rate and a mailbox-backlog sparkline from the ring sampler."

let bench_diff_cmd =
  let doc =
    "Perf-trend watchdog: parse every committed BENCH_*.json checkpoint \
     (schemas sasos-bench/1 and /2), render the accesses/sec trajectory of \
     each benchmark series as a sparkline, and with --min-ratio fail (exit \
     1) when any series' newest rate has regressed below that fraction of \
     the series' best earlier rate, naming the first diverging metric."
  in
  let dir =
    let doc = "Directory holding the BENCH_*.json checkpoints." in
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let min_ratio =
    let doc =
      "Fail when a series' newest accesses/sec is below $(docv) times its \
       best earlier value."
    in
    Arg.(
      value & opt (some float) None & info [ "min-ratio" ] ~docv:"R" ~doc)
  in
  let run dir min_ratio =
    match Sasos.Trend.load_dir dir with
    | exception Sys_error msg -> `Error (false, msg)
    | exception Sasos.Trend.Json.Parse_error msg -> `Error (false, msg)
    | [] ->
        print_endline "bench-diff: no BENCH_*.json series found";
        if min_ratio = None then `Ok ()
        else `Error (false, "no series to gate on")
    | series -> (
        print_string (Sasos.Trend.render series);
        match min_ratio with
        | None -> `Ok ()
        | Some r -> (
            match Sasos.Trend.check ~min_ratio:r series with
            | exception Invalid_argument msg -> `Error (false, msg)
            | [] ->
                Printf.printf "bench-diff: %d series within %.2fx of best\n"
                  (List.length series) r;
                `Ok ()
            | failures ->
                List.iter
                  (fun f -> prerr_endline (Sasos.Trend.render_failure f))
                  failures;
                `Error (false, "benchmark regression detected")))
  in
  Cmd.v (Cmd.info "bench-diff" ~doc) Term.(ret (const run $ dir $ min_ratio))

let info_cmd =
  let doc = "Print the default geometry and cost model." in
  let run () =
    let g = Sasos.Geometry.default in
    Format.printf "%a@." Sasos.Geometry.pp g;
    Printf.printf "PLB entry bits: %d, page-group TLB entry bits: %d, \
                   conventional TLB entry bits: %d\n"
      (Sasos.Geometry.plb_entry_bits g)
      (Sasos.Geometry.pg_tlb_entry_bits g)
      (Sasos.Geometry.conv_tlb_entry_bits g);
    let c = Sasos.Hw.Cost_model.default in
    Printf.printf
      "cost model (cycles): cache hit %d, cache miss %d, tlb refill %d, plb \
       refill %d, pg refill %d, kernel trap %d, page in/out %d/%d, domain \
       switch %d\n"
      c.Sasos.Hw.Cost_model.cache_hit c.Sasos.Hw.Cost_model.cache_miss
      c.Sasos.Hw.Cost_model.tlb_refill c.Sasos.Hw.Cost_model.plb_refill
      c.Sasos.Hw.Cost_model.pg_refill c.Sasos.Hw.Cost_model.kernel_trap
      c.Sasos.Hw.Cost_model.page_in c.Sasos.Hw.Cost_model.page_out
      c.Sasos.Hw.Cost_model.domain_switch
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ const ())

let () =
  let doc =
    "simulator for single-address-space protection architectures \
     (Koldinger, Chase & Eggers, ASPLOS 1992)"
  in
  let info = Cmd.info "sasos" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            workload_cmd;
            trace_cmd;
            profile_cmd;
            report_cmd;
            check_cmd;
            scale_cmd;
            top_cmd;
            bench_diff_cmd;
            info_cmd;
          ]))
