(* Every metric the benchmark prints: name, unit, which direction is
   better, and a note — how an end-to-end metric is measured, or which
   end-to-end metric and workload a per-layer metric should move.
   BENCHMARK.json and README.md are written from this list;
   `bench.exe --list-metrics` prints it. *)

type metric = { name : string; unit : string; better : string; note : string }

let m ?(better = "lower") name unit note = { name; unit; better; note }

let end_to_end =
  [
    m "setup_s" "s"
      "median of at least 5 timed set-ups, each a fresh process from exec \
       to the start of the timed region";
    m "run_s" "s"
      "the timed region: each of its pieces' fastest time over the run's \
       untraced passes, summed";
    m "peak_rss_mb" "MB" "peak resident memory of the untraced passes";
  ]

let machine_op op =
  match op with
  | "access" -> "run_s on replay (and report)"
  | "over_allow" -> "run_s on check"
  | "charge" -> "run_s on replay"
  | _ -> "run_s on check (protection changes, switches, unmaps, destroys)"

let per_layer =
  [
    m "bench.trace_overhead" "ratio"
      "none: traced pass / run_s - 1, the cost of tracing (reads high on a \
       noisy host: run_s keeps each piece's fastest time)";
    m ~better:"higher" "bench.layer_coverage" "ratio"
      "none: share of the traced total that the per-layer times account for";
  ]
  @ List.map
      (fun id -> m ("experiments." ^ id ^ "_s") "s" "run_s on report")
      Report_wl.ids
  @ [
      m "machine.create_us" "us" "run_s on check (most of it); ~nothing on replay";
      m "machine.calls.create" "count" "run_s on check";
    ]
  @ List.concat_map
      (fun op ->
        let unit = if op = "over_allow" then "us" else "ns" in
        [
          m ("machine." ^ op ^ "_" ^ unit) unit (machine_op op);
          m ("machine.calls." ^ op) "count" (machine_op op);
        ])
      (Array.to_list Timed_sys.op_names)
  @ List.map
      (fun (name, _) ->
        m ("machine.replay." ^ name ^ "_s") "s"
          "run_s on replay; shows which model's path moved")
      Sasos.Machines.all
  @ [
      m "check.gen_s" "s" "run_s on check";
      m "check.oracle_s" "s" "run_s on check";
      m "check.exec_self_s" "s" "run_s on check (Exec.run_packed minus machine time)";
      m "trace.record_s" "s" "setup_s on replay";
      m "trace.save_s" "s" "setup_s on replay";
      m "workloads.gen_s" "s" "setup_s on replay (recording minus machine time)";
      m "trace.load_s" "s" "run_s on replay";
      m "trace.player_self_s" "s" "run_s on replay (replay minus machine time)";
      m "shard.prepare_s" "s" "setup_s on scale";
      m "shard.round_us_p50" "us" "run_s on scale";
      m "shard.round_us_p99" "us" "run_s on scale";
      m ~better:"higher" "hw.tlb_hit_ratio" "ratio" "explains run_s on scale, check, replay";
      m ~better:"higher" "hw.plb_hit_ratio" "ratio" "explains run_s on scale, check, replay";
      m ~better:"higher" "hw.pg_hit_ratio" "ratio" "explains run_s on check, replay";
      m "os.kernel_entries" "count" "explains run_s on scale, check, replay";
      m "mem.page_faults" "count" "explains run_s on scale, check, replay";
      m "mem.page_outs" "count" "explains run_s on scale, check, replay";
      m "shard.msgs" "count" "explains run_s on scale";
      m "shard.proxies" "count" "explains run_s on scale";
      m "gc.minor_mwords" "Mwords" "run_s and peak_rss_mb on every workload";
      m "gc.major_collections" "count" "run_s and peak_rss_mb on every workload";
      m "gc.top_heap_mb" "MB" "peak_rss_mb on every workload";
    ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> Some x.unit
  | None -> None
