(* replay: the nine registry workloads recorded on the PLB machine, saved
   and reloaded through the trace store, then each trace replayed on all
   five machines — `sasos trace record` / `sasos trace replay`, with each
   workload's generator seeded from the benchmark seed. Replay runs the
   machine operations without the workload generators, and it is the only
   workload that reaches the trace layer (parser and player dispatch).
   Set-up is record + save; the timed region is load + replay. *)

open Sasos

let dir = Filename.concat ".perfbench" "replay"
let traced_dir = Filename.concat ".perfbench" "replay-traced"

(* The registry's workloads with their default parameters, except that
   each draws its generator seed from the benchmark seed. *)
let workloads : (string * (int -> Os.System_intf.packed -> unit)) list =
  let open Workloads in
  [
    ( "attach",
      fun seed sys ->
        Attach_churn.run ~params:{ Attach_churn.default with Attach_churn.seed } sys );
    ("gc", fun seed sys -> ignore (Gc.run ~params:{ Gc.default with Gc.seed } sys));
    ("dsm", fun seed sys -> ignore (Dsm.run ~params:{ Dsm.default with Dsm.seed } sys));
    ("txn", fun seed sys -> ignore (Txn.run ~params:{ Txn.default with Txn.seed } sys));
    ( "checkpoint",
      fun seed sys ->
        ignore (Checkpoint.run ~params:{ Checkpoint.default with Checkpoint.seed } sys) );
    ( "compress",
      fun seed sys ->
        ignore
          (Compress_paging.run
             ~params:{ Compress_paging.default with Compress_paging.seed } sys) );
    ( "server-os",
      fun seed sys ->
        ignore (Server_os.run ~params:{ Server_os.default with Server_os.seed } sys) );
    ("rpc", fun seed sys -> Rpc.run ~params:{ Rpc.default with Rpc.seed } sys);
    ( "synthetic",
      fun seed sys ->
        Synthetic.run ~params:{ Synthetic.default with Synthetic.seed } sys );
  ]

let path dir name = Filename.concat dir (name ^ ".trace")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Record every workload on a PLB machine, optionally behind a timing
   wrapper, and save the traces; returns (record, save) seconds. *)
let record ~seed ?counters dir =
  mkdir_p dir;
  List.fold_left
    (fun (rec_s, save_s) (i, (name, run)) ->
      let t0 = Pb.now_ns () in
      let inner = Machines.make Machines.Plb Config.default in
      let inner =
        match counters with
        | None -> inner
        | Some c -> Timed_sys.pack (Timed_sys.wrap c inner)
      in
      let r = Trace.Recorder.wrap inner in
      run (seed + i)
        (Os.System_intf.Packed
           ((module Trace.Recorder : Os.System_intf.SYSTEM with type t = Trace.Recorder.t), r));
      let events = Trace.Recorder.events r in
      let rec_dt = Pb.since t0 in
      let (), save_dt =
        Workload.time (fun () ->
            Trace.Store.save (path dir name)
              ~header:(Printf.sprintf "sasos trace: workload=%s machine=plb seed=%d" name (seed + i))
              events)
      in
      (rec_s +. rec_dt, save_s +. save_dt))
    (0.0, 0.0)
    (List.mapi (fun i w -> (i, w)) workloads)

(* Fold of a replay's outcomes: count, faults and an order-sensitive hash. *)
let fold_outcomes outcomes =
  List.fold_left
    (fun (n, faults, h) o ->
      ( n + 1,
        (if Access.outcome_equal o Access.Protection_fault then faults + 1 else faults),
        ((h * 31) + Hashtbl.hash o) land max_int ))
    (0, 0, 0) outcomes

(* What one pass over the saved traces observed. *)
type tally = {
  mutable lines : string list;  (* digest material, newest first *)
  mutable pieces : (string * float) list;  (* newest first *)
  mutable replays : int;
  mutable failed : int;
  mutable events : int;
  mutable accesses : int;
  metrics : Metrics.t;
}

let tally () =
  { lines = []; pieces = []; replays = 0; failed = 0; events = 0; accesses = 0; metrics = Metrics.create () }

(* Replay one loaded trace on every machine. [run_one] builds a machine
   and replays on it, returning the machine and the player's result. A
   replay fails when the player errors or its outcomes differ from the
   PLB replay's. *)
let replay_trace tl name events run_one =
  tl.events <- tl.events + List.length events;
  let results = List.map (fun (mname, v) -> (mname, v, run_one v events)) Machines.all in
  let reference =
    List.find_map
      (fun (_, v, (_, res)) ->
        match res with Ok o when v = Machines.Plb -> Some o | _ -> None)
      results
  in
  List.iter
    (fun (mname, _, (sys, res)) ->
      tl.replays <- tl.replays + 1;
      Metrics.add_into tl.metrics (System_ops.metrics sys);
      let line =
        match res with
        | Error { Trace.Player.at; reason; _ } ->
            tl.failed <- tl.failed + 1;
            Printf.sprintf "%s %s error at %d: %s" name mname at reason
        | Ok outcomes ->
            let agrees =
              match reference with
              | Some r -> List.equal Access.outcome_equal outcomes r
              | None -> false
            in
            if not agrees then tl.failed <- tl.failed + 1;
            let n, faults, h = fold_outcomes outcomes in
            tl.accesses <- tl.accesses + n;
            Printf.sprintf "%s %s %d %d %x %s" name mname n faults h
              (Workload.metrics_text (System_ops.metrics sys))
      in
      tl.lines <- line :: tl.lines)
    results

let load_or_fail tl name dir =
  match Trace.Store.load (path dir name) with
  | Ok events -> Some events
  | Error msg ->
      let n = List.length Machines.all in
      tl.replays <- tl.replays + n;
      tl.failed <- tl.failed + n;
      tl.lines <- Printf.sprintf "%s load error: %s" name msg :: tl.lines;
      None

let pass_of tl seconds =
  {
    Workload.seconds;
    pieces = List.rev tl.pieces;
    attempted = tl.replays;
    failed = tl.failed;
    digest = Pb.md5 (String.concat "\n" (List.rev tl.lines));
    counts = [ ("replays", tl.replays); ("events", tl.events); ("accesses", tl.accesses) ];
  }

let make ~seed =
  let setup () = ignore (record ~seed dir) in
  let untraced () =
    let tl = tally () in
    let piece label f =
      let r, dt = Workload.time f in
      tl.pieces <- (label, dt) :: tl.pieces;
      r
    in
    let t0 = Pb.now_ns () in
    List.iter
      (fun (name, _) ->
        Option.iter
          (fun events ->
            replay_trace tl name events (fun v events ->
                piece (name ^ "@" ^ Machines.to_string v) (fun () ->
                    let sys = Machines.make v Config.default in
                    (sys, Trace.Player.replay events sys))))
          (piece ("load " ^ name) (fun () -> load_or_fail tl name dir)))
      workloads;
    pass_of tl (Pb.since t0)
  in
  let traced () =
    let crec = Timed_sys.counters () in
    let record_s, save_s = record ~seed ~counters:crec traced_dir in
    Gc.full_major ();
    let c = Timed_sys.counters () in
    let tl = tally () in
    let load = ref 0.0 and create = ref 0.0 and creates = ref 0 in
    let per_machine = Hashtbl.create 8 and replay_total = ref 0.0 in
    let t0 = Pb.now_ns () in
    List.iter
      (fun (name, _) ->
        let events, dt = Workload.time (fun () -> load_or_fail tl name traced_dir) in
        load := !load +. dt;
        Option.iter
          (fun events ->
            replay_trace tl name events (fun v events ->
                let sys, dt = Workload.time (fun () -> Machines.make v Config.default) in
                create := !create +. dt;
                incr creates;
                let res, dt =
                  Workload.time (fun () ->
                      Trace.Player.replay events (Timed_sys.pack (Timed_sys.wrap c sys)))
                in
                let m = Machines.to_string v in
                Hashtbl.replace per_machine m
                  (dt +. Option.value ~default:0.0 (Hashtbl.find_opt per_machine m));
                replay_total := !replay_total +. dt;
                (sys, res)))
          events)
      workloads;
    let total = Pb.since t0 in
    let machine_s = float_of_int (Timed_sys.total_ns c) *. 1e-9 in
    {
      Workload.total;
      coverage = (!load +. !create +. !replay_total) /. total;
      same = pass_of tl total;
      layers =
        [
          ("trace.record_s", record_s);
          ("trace.save_s", save_s);
          ("workloads.gen_s", record_s -. (float_of_int (Timed_sys.total_ns crec) *. 1e-9));
          ("trace.load_s", !load);
          ("trace.player_self_s", !replay_total -. machine_s);
        ]
        @ List.map
            (fun (_, v) ->
              let m = Machines.to_string v in
              ( "machine.replay." ^ m ^ "_s",
                Option.value ~default:0.0 (Hashtbl.find_opt per_machine m) ))
            Machines.all
        @ Workload.machine_layers c ~creates:!creates ~create_s:!create
        @ Workload.hw_layers tl.metrics;
    }
  in
  {
    Workload.inputs =
      [ ("workloads", String.concat "," (List.map fst workloads));
        ("recorded_on", "plb"); ("machines", Machines.names_doc);
        ("workload_seeds", Printf.sprintf "%d+index" seed) ];
    setup;
    untraced;
    min_passes = 1;
    max_passes = max_int;
    same_each_pass = true;
    reference_pass = 0;
    traced;
  }
