(* scale: the million-domain sharded rig of bench/scale.ml on 2 shards —
   1M domains, 10M pages, an active window of 112 domains with bursts of
   16 accesses, 1% cross-shard churn, and 1,024 TLB/PLB entries and 1,024
   frames per shard. Set-up is Shard.prepare (million-entry OS tables).
   Each pass runs the next 250 rounds on the same rig, which take the
   paging slow path and carry cross-shard mailbox traffic; a run makes 8 to
   16 passes (2,000 to 4,000 rounds), and the traced pass reproduces the
   state after the first 2,000 rounds on a fresh rig. *)

open Sasos

let chunk = 250
let reference_chunks = 8
let rounds = chunk * reference_chunks

(* Every round leaves garbage behind and the heap grows with the rounds
   run (about 0.5 GB after 2,000, 0.75 GB after 4,000), so a run stops at
   16 passes however fast the host is. *)
let max_chunks = 16

let config seed =
  {
    Shard.default with
    Shard.domains = 1_000_000;
    pages = 10_000_000;
    shards = 2;
    rounds = 0;
    active = 112;
    burst = 16;
    rotate = 0;
    churn = 0.01;
    pages_per_seg = 16;
    segs_per_dom = 2;
    tlb_entries = 1024;
    plb_entries = 1024;
    frames = 1024;
    variant = Machines.Plb;
    seed;
  }

(* Conservation checks on the report; each returns a complaint. *)
let conservation (cfg : Shard.config) (r : Shard.report) =
  let sum f = Array.fold_left (fun a s -> a + f s) 0 r.shards in
  let fields_sum f =
    let acc = Metrics.create () in
    Array.iter (fun s -> Metrics.add_into acc (f s)) r.shards;
    Metrics.fields acc
  in
  let expected = r.rounds_run * cfg.active * cfg.burst in
  List.filter_map Fun.id
    [
      (if r.aggregate_traffic.accesses = expected then None
       else
         Some
           (Printf.sprintf "accesses %d <> rounds x active x burst = %d"
              r.aggregate_traffic.accesses expected));
      (let o = sum (fun s -> s.Shard.msgs_out)
       and i = sum (fun s -> s.Shard.msgs_in) in
       if o = i then None
       else Some (Printf.sprintf "messages out %d <> messages in %d" o i));
      (if fields_sum (fun s -> s.Shard.total) = Metrics.fields r.aggregate then None
       else Some "per-shard totals do not sum to the aggregate");
      (if
         fields_sum (fun s -> Metrics.diff s.Shard.total s.Shard.setup)
         = Metrics.fields r.aggregate_traffic
       then None
       else Some "per-shard traffic does not sum to the aggregate traffic");
    ]

let msgs (r : Shard.report) =
  Array.fold_left (fun a s -> a + s.Shard.msgs_out) 0 r.shards

let proxies (r : Shard.report) =
  Array.fold_left (fun a s -> a + s.Shard.proxies) 0 r.shards

let pass_of cfg rig seconds =
  let r = Shard.report rig in
  let complaints = conservation cfg r in
  List.iter (fun c -> prerr_endline ("scale: conservation: " ^ c)) complaints;
  {
    Workload.seconds;
    pieces = [ ("pass", seconds) ];
    attempted = 1;
    failed = (if complaints = [] then 0 else 1);
    digest = Pb.md5 (Shard.render r);
    counts =
      [ ("rounds", r.rounds_run);
        ("accesses", r.aggregate_traffic.accesses);
        ("msgs", msgs r); ("proxies", proxies r) ];
  }

let make ~seed =
  let cfg = config seed in
  let rig = ref None in
  let setup () = rig := Some (Shard.prepare cfg) in
  let untraced () =
    let t = Option.get !rig in
    let t0 = Pb.now_ns () in
    Shard.rounds t chunk;
    pass_of cfg t (Pb.since t0)
  in
  (* a fresh rig (the untraced one is dropped first, so at most one is
     live), then the first 2,000 rounds one round per call *)
  let traced () =
    rig := None;
    Gc.compact ();
    let t, prepare_s = Workload.time (fun () -> Shard.prepare cfg) in
    Gc.full_major ();
    let times = Array.make rounds 0.0 in
    let walls =
      Array.init reference_chunks (fun c ->
          let t0 = Pb.now_ns () in
          for i = c * chunk to ((c + 1) * chunk) - 1 do
            let r0 = Pb.now_ns () in
            Shard.rounds t 1;
            times.(i) <- Pb.since r0
          done;
          Pb.since t0)
    in
    (* a traced pass is a 250-round chunk, like an untraced one, and the
       fastest one is compared with run_s *)
    let total = Array.fold_left Float.min infinity walls in
    let same = pass_of cfg t total in
    let r = Shard.report t in
    let pct p =
      match Pb.percentile p times with
      | Ok x -> x *. 1e6
      | Error msg -> failwith msg
    in
    {
      Workload.total;
      coverage =
        Array.fold_left ( +. ) 0.0 times /. Array.fold_left ( +. ) 0.0 walls;
      same;
      layers =
        [
          ("shard.prepare_s", prepare_s);
          ("shard.round_us_p50", pct 50.0);
          ("shard.round_us_p99", pct 99.0);
          ("shard.msgs", float_of_int (msgs r));
          ("shard.proxies", float_of_int (proxies r));
        ]
        @ Workload.hw_layers r.aggregate_traffic;
    }
  in
  {
    Workload.inputs =
      [ ("domains", string_of_int cfg.domains);
        ("pages", string_of_int cfg.pages);
        ("shards", string_of_int cfg.shards);
        ("rounds_per_pass", string_of_int chunk);
        ("traced_rounds", string_of_int rounds);
        ("active", string_of_int cfg.active);
        ("burst", string_of_int cfg.burst);
        ("churn", string_of_float cfg.churn);
        ("tlb_plb_entries", string_of_int cfg.tlb_entries);
        ("frames_per_shard", string_of_int cfg.frames);
        ("machine", Machines.to_string cfg.variant);
        ("seed", string_of_int seed); ("jobs", "1") ];
    setup;
    untraced;
    min_passes = reference_chunks;
    max_passes = max_chunks;
    same_each_pass = false;
    reference_pass = reference_chunks - 1;
    traced;
  }
