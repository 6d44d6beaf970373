(* Observability subsystem (lib/obs): span nesting discipline, the
   zero-cost disabled path, sampler ring wraparound, cycle-attribution
   conservation (sum of op spans == aggregate machine cycles), parallel
   determinism of profiled runs, merge arithmetic, Chrome trace
   parse-back, and the injectable wall clock. *)

open Sasos

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* -- nesting discipline ------------------------------------------------- *)

let test_phase_misnesting () =
  let o = Obs.create () in
  Alcotest.(check bool) "end without begin" true
    (raises_invalid (fun () -> Obs.phase_end o "a"));
  Obs.phase_begin o "a";
  Alcotest.(check bool) "wrong name" true
    (raises_invalid (fun () -> Obs.phase_end o "b"));
  Alcotest.(check bool) "summarize with open phase" true
    (raises_invalid (fun () -> Obs.summarize o));
  Obs.phase_end o "a";
  ignore (Obs.summarize o)

let test_op_misnesting () =
  let o = Obs.create () in
  let m =
    Obs.register_machine o ~model:"plb" ~metrics:(Metrics.create ())
      ~probe:(Hw.Probe.create ())
  in
  Alcotest.(check bool) "op_end without begin" true
    (raises_invalid (fun () -> Obs.op_end m "access"));
  Obs.op_begin m "access";
  Alcotest.(check bool) "double op_begin" true
    (raises_invalid (fun () -> Obs.op_begin m "attach"));
  Alcotest.(check bool) "op_end wrong name" true
    (raises_invalid (fun () -> Obs.op_end m "attach"));
  Alcotest.(check bool) "summarize with open op" true
    (raises_invalid (fun () -> Obs.summarize o));
  Obs.op_end m "access";
  ignore (Obs.summarize o)

let test_register_on_disabled () =
  Alcotest.(check bool) "register_machine on disabled" true
    (raises_invalid (fun () ->
         Obs.register_machine Obs.disabled ~model:"plb"
           ~metrics:(Metrics.create ()) ~probe:(Hw.Probe.create ())))

(* -- disabled path: no-ops, and no allocation --------------------------- *)

let test_disabled_noop () =
  let o = Obs.disabled in
  Alcotest.(check bool) "not enabled" false (Obs.enabled o);
  (* phase spans on the inert collector are no-ops, never misnesting *)
  Obs.phase_end o "never-opened";
  Obs.phase_begin o "x";
  Obs.phase_begin o "x";
  Alcotest.(check bool) "ambient defaults to disabled" false
    (Obs.enabled (Obs.ambient ()));
  Alcotest.(check bool) "summarize disabled raises" true
    (raises_invalid (fun () -> Obs.summarize o))

let test_disabled_no_alloc () =
  let o = Obs.disabled in
  ignore (Obs.enabled (Obs.ambient ()));
  (* warm *)
  let iters = 100_000 in
  (* Gc.minor_words, not quick_stat: on OCaml 5.1 quick_stat's
     minor_words only advances at minor collections, so a window shorter
     than one minor-heap fill would read as zero no matter what the loop
     allocates. *)
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Obs.phase_begin o "x";
    Obs.phase_end o "x";
    ignore (Obs.enabled (Obs.ambient ()))
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int iters in
  if per_op > 0.01 then
    Alcotest.failf "disabled path allocates %.4f words/op" per_op

(* -- sampler ring ------------------------------------------------------- *)

let test_ring_wraparound () =
  let o = Obs.create ~sample_every:16 ~ring_capacity:4 () in
  let metrics = Metrics.create () in
  let m =
    Obs.register_machine o ~model:"plb" ~metrics ~probe:(Hw.Probe.create ())
  in
  for i = 1 to 200 do
    (* move the counters so windows are non-trivial *)
    Obs.op_begin m "access";
    metrics.Metrics.accesses <- metrics.Metrics.accesses + 1;
    metrics.Metrics.cycles <- metrics.Metrics.cycles + 3;
    Obs.op_end m "access";
    ignore i;
    Obs.tick m
  done;
  let s = Obs.summarize o in
  Alcotest.(check int) "samples seen" (200 / 16) s.Obs.samples_seen;
  Alcotest.(check int) "ring keeps last 4" 4 (List.length s.Obs.samples);
  (* oldest->newest, and the retained tail is the last four thresholds *)
  let clocks = List.map (fun p -> p.Obs.s_accesses) s.Obs.samples in
  Alcotest.(check (list int)) "retained tail" [ 144; 160; 176; 192 ] clocks

(* -- conservation: sum of op spans == machine aggregate ----------------- *)

let run_profiled_workload () =
  let o = Obs.create ~sample_every:64 () in
  let cycles =
    Obs.with_ambient o (fun () ->
        let sys = Machines.make Machines.Plb Config.default in
        let d1 = System_ops.new_domain sys in
        let d2 = System_ops.new_domain sys in
        let seg = System_ops.new_segment sys ~pages:8 () in
        System_ops.attach sys d1 seg Rights.rw;
        System_ops.attach sys d2 seg Rights.r;
        System_ops.switch_domain sys d1;
        for i = 0 to 255 do
          ignore
            (System_ops.access sys Access.Write
               (Segment.page_va seg (i land 7)))
        done;
        System_ops.switch_domain sys d2;
        for i = 0 to 255 do
          ignore
            (System_ops.access sys Access.Read
               (Segment.page_va seg (i land 7)))
        done;
        System_ops.detach sys d2 seg;
        (System_ops.metrics sys).Metrics.cycles)
  in
  (Obs.summarize o, cycles)

let test_span_cycle_conservation () =
  let s, machine_cycles = run_profiled_workload () in
  let span_sum =
    List.fold_left
      (fun acc r -> acc + r.Obs.delta.Metrics.cycles)
      0 s.Obs.ops
  in
  Alcotest.(check int) "sum of spans = machine cycles" machine_cycles span_sum;
  Alcotest.(check int) "summary total = machine cycles" machine_cycles
    s.Obs.total_cycles;
  Alcotest.(check int) "virtual clock = total" machine_cycles s.Obs.clock;
  Alcotest.(check bool) "sampled" true (s.Obs.samples_seen > 0)

(* -- merge arithmetic --------------------------------------------------- *)

let test_merge_doubles () =
  let s, _ = run_profiled_workload () in
  let before = Obs.to_json s in
  let m = Obs.merge [ s; s ] in
  Alcotest.(check int) "cycles doubled" (2 * s.Obs.total_cycles)
    m.Obs.total_cycles;
  Alcotest.(check int) "clock doubled" (2 * s.Obs.clock) m.Obs.clock;
  Alcotest.(check int) "op rows dedup by key" (List.length s.Obs.ops)
    (List.length m.Obs.ops);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same key" (a.Obs.scope ^ "/" ^ a.Obs.op)
        (b.Obs.scope ^ "/" ^ b.Obs.op);
      Alcotest.(check int) "count doubled" (2 * a.Obs.count) b.Obs.count)
    s.Obs.ops m.Obs.ops;
  Alcotest.(check int) "samples concatenated"
    (2 * List.length s.Obs.samples)
    (List.length m.Obs.samples);
  (* inputs must not be mutated by the merge *)
  Alcotest.(check string) "input untouched" before (Obs.to_json s)

(* -- parallel determinism ----------------------------------------------- *)

let profiled_registry_run ~jobs =
  let exps =
    match Experiments.Registry.select [ "micro_ops"; "tag_overhead" ] with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  let results = Runner.run ~jobs ~profile:true exps in
  Alcotest.(check int) "no failures" 0 (List.length (Runner.failures results));
  match Runner.merged_profile results with
  | Some s -> s
  | None -> Alcotest.fail "no profile collected"

let test_jobs_determinism () =
  let s1 = profiled_registry_run ~jobs:1 in
  let s4 = profiled_registry_run ~jobs:4 in
  Alcotest.(check string) "table identical" (Obs.render_table s1)
    (Obs.render_table s4);
  Alcotest.(check string) "json identical" (Obs.to_json s1) (Obs.to_json s4);
  Alcotest.(check string) "chrome identical" (Obs.to_chrome s1)
    (Obs.to_chrome s4)

(* -- Chrome trace parse-back -------------------------------------------- *)

(* minimal recursive-descent JSON reader; enough to load a trace_event
   file back and cross-check it against the summary it came from *)
module Json = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Bad of string

  let parse (s : string) : v =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = c then advance ()
      else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' ->
                (* keep the escape verbatim; tests don't need code points *)
                Buffer.add_string b "\\u"
            | c -> Buffer.add_char b c);
            advance ();
            go ()
        | '\000' -> raise (Bad "unterminated string")
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let is_num c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while is_num (peek ()) do
        advance ()
      done;
      float_of_string (String.sub s start (!pos - start))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> raise (Bad "object")
            in
            Obj (members [])
          end
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  elems (v :: acc)
              | ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> raise (Bad "array")
            in
            Arr (elems [])
          end
      | '"' -> Str (string_lit ())
      | 't' ->
          pos := !pos + 4;
          Bool true
      | 'f' ->
          pos := !pos + 5;
          Bool false
      | 'n' ->
          pos := !pos + 4;
          Null
      | _ -> number_value ()
    and number_value () = Num (number ()) in
    let v = value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let mem k = function
    | Obj l -> List.assoc_opt k l
    | _ -> None

  let str k o = match mem k o with Some (Str s) -> Some s | _ -> None

  let num k o = match mem k o with Some (Num f) -> Some f | _ -> None
end

let test_chrome_parse_back () =
  let s, machine_cycles = run_profiled_workload () in
  let doc = Json.parse (Obs.to_chrome s) in
  let events =
    match Json.mem "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let op_durs =
    List.filter_map
      (fun e ->
        match (Json.str "ph" e, Json.str "cat" e) with
        | Some "X", Some "op" -> Json.num "dur" e
        | _ -> None)
      events
  in
  Alcotest.(check bool) "has op events" true (op_durs <> []);
  let sum = int_of_float (List.fold_left ( +. ) 0.0 op_durs) in
  Alcotest.(check int) "op durations sum to machine cycles" machine_cycles sum;
  let has_meta =
    List.exists (fun e -> Json.str "ph" e = Some "M") events
  in
  let has_counter =
    List.exists (fun e -> Json.str "ph" e = Some "C") events
  in
  Alcotest.(check bool) "metadata present" true has_meta;
  Alcotest.(check bool) "counters present" true has_counter;
  (* obs JSON parses back too, with the right schema and totals *)
  let obs = Json.parse (Obs.to_json ~indent:true s) in
  Alcotest.(check (option string)) "schema" (Some "sasos-obs/1")
    (Json.str "schema" obs);
  Alcotest.(check (option int)) "total_cycles round-trips"
    (Some s.Obs.total_cycles)
    (Option.map int_of_float (Json.num "total_cycles" obs))

(* -- tracks, flows and gauges ------------------------------------------- *)

(* a tiny tracked collector with one op span, a flow in each direction
   and published gauges — enough structure to exercise every new field *)
let tracked_summary ?(track = 0) ?(flows = true) () =
  let o =
    Obs.create ~sample_every:2 ~ring_capacity:8 ~track
      ~label:(Printf.sprintf "shard %d" track)
      ()
  in
  let metrics = Metrics.create () in
  let m =
    Obs.register_machine o ~model:"plb" ~metrics ~probe:(Hw.Probe.create ())
  in
  Obs.phase_begin o "local-execute";
  Obs.op_begin m "access";
  metrics.Metrics.accesses <- metrics.Metrics.accesses + 4;
  metrics.Metrics.page_faults <- metrics.Metrics.page_faults + 1;
  metrics.Metrics.cycles <- metrics.Metrics.cycles + 100;
  Obs.op_end m "access";
  if flows then Obs.flow_out o ~id:(7 + track) ~name:"attach";
  Obs.phase_end o "local-execute";
  Obs.phase_begin o "mailbox-exchange";
  if flows then Obs.flow_in o ~id:(100 + track) ~name:"detach";
  Obs.phase_end o "mailbox-exchange";
  Obs.set_gauges o ~backlog:3 ~proxies:2 ~skew:1.25;
  Obs.tick m;
  Obs.tick m;
  Obs.summarize o

let test_flows_and_gauges () =
  let s = tracked_summary () in
  Alcotest.(check int) "track id" 0 s.Obs.track;
  Alcotest.(check string) "label" "shard 0" s.Obs.label;
  (match (s.Obs.flows_out, s.Obs.flows_in) with
  | [ fo ], [ fi ] ->
      Alcotest.(check int) "flow out id" 7 fo.Obs.fl_id;
      Alcotest.(check string) "flow out name" "attach" fo.Obs.fl_name;
      Alcotest.(check bool) "flow out ts on virtual clock" true
        (fo.Obs.fl_ts >= 0 && fo.Obs.fl_ts <= s.Obs.clock);
      Alcotest.(check int) "flow in id" 100 fi.Obs.fl_id
  | _ -> Alcotest.fail "expected one flow each way");
  Alcotest.(check int) "no drops" 0 s.Obs.flows_dropped;
  (* gauges land in every sample taken after set_gauges *)
  match s.Obs.samples with
  | sm :: _ ->
      Alcotest.(check int) "backlog gauge" 3 sm.Obs.g_backlog;
      Alcotest.(check int) "proxies gauge" 2 sm.Obs.g_proxies;
      Alcotest.(check (float 1e-9)) "skew gauge" 1.25 sm.Obs.g_skew;
      (* fault rate is windowed: (1 page fault) / (4 accesses) *)
      Alcotest.(check (float 1e-9)) "windowed fault rate" 0.25
        sm.Obs.fault_rate
  | [] -> Alcotest.fail "expected a sample"

let test_flow_budget () =
  let o = Obs.create ~max_flow_events:2 () in
  Obs.flow_out o ~id:1 ~name:"a";
  Obs.flow_in o ~id:2 ~name:"b";
  Obs.flow_out o ~id:3 ~name:"c";
  Obs.flow_in o ~id:4 ~name:"d";
  let s = Obs.summarize o in
  Alcotest.(check int) "retained"
    2
    (List.length s.Obs.flows_out + List.length s.Obs.flows_in);
  Alcotest.(check int) "dropped" 2 s.Obs.flows_dropped;
  (* disabled collector: flows and gauges are nops, peek returns [] *)
  Obs.flow_out Obs.disabled ~id:9 ~name:"x";
  Obs.set_gauges Obs.disabled ~backlog:1 ~proxies:1 ~skew:1.0;
  Alcotest.(check int) "peek on disabled" 0
    (List.length (Obs.peek_samples Obs.disabled))

let test_peek_samples_mid_run () =
  let o = Obs.create ~sample_every:1 ~ring_capacity:4 () in
  let metrics = Metrics.create () in
  let m =
    Obs.register_machine o ~model:"plb" ~metrics ~probe:(Hw.Probe.create ())
  in
  (* peek works with an open phase — summarize would raise here *)
  Obs.phase_begin o "round";
  metrics.Metrics.accesses <- 10;
  Obs.tick m;
  metrics.Metrics.accesses <- 25;
  Obs.tick m;
  let peeked = Obs.peek_samples o in
  Alcotest.(check int) "two samples" 2 (List.length peeked);
  Alcotest.(check (list int)) "oldest first" [ 10; 25 ]
    (List.map (fun sm -> sm.Obs.s_accesses) peeked);
  Obs.phase_end o "round"

let test_merge_tracks () =
  let s0 = tracked_summary ~track:0 () in
  let s1 = tracked_summary ~track:1 () in
  let before = Obs.to_json s0 in
  (* registry order is reversed input order here; merge must sort by id *)
  let m = Obs.merge_tracks [ s1; s0 ] in
  Alcotest.(check int) "aggregate cycles summed"
    (s0.Obs.total_cycles + s1.Obs.total_cycles)
    m.Obs.total_cycles;
  Alcotest.(check int) "clock is makespan max"
    (max s0.Obs.clock s1.Obs.clock)
    m.Obs.clock;
  Alcotest.(check (list int)) "tracks sorted by id" [ 0; 1 ]
    (List.map (fun t -> t.Obs.track) m.Obs.tracks);
  Alcotest.(check bool) "tracks kept verbatim" true
    (List.exists (fun t -> Obs.to_json t = before) m.Obs.tracks);
  (* per-track timelines are not rebased: each track keeps its own ts *)
  List.iter
    (fun t ->
      List.iter
        (fun f ->
          Alcotest.(check bool) "flow ts within its own track clock" true
            (f.Obs.fl_ts <= t.Obs.clock))
        t.Obs.flows_out)
    m.Obs.tracks;
  (* top-level samples get a per-shard scope prefix *)
  List.iter
    (fun sm ->
      Alcotest.(check bool) "sample scope prefixed" true
        (String.length sm.Obs.s_scope > 2 && sm.Obs.s_scope.[0] = 's'))
    m.Obs.samples;
  (* invalid inputs rejected loudly *)
  Alcotest.(check bool) "empty input" true
    (raises_invalid (fun () -> Obs.merge_tracks []));
  let untracked, _ = run_profiled_workload () in
  Alcotest.(check bool) "untracked input" true
    (raises_invalid (fun () -> Obs.merge_tracks [ untracked ]));
  Alcotest.(check bool) "duplicate track ids" true
    (raises_invalid (fun () -> Obs.merge_tracks [ s0; s0 ]));
  Alcotest.(check bool) "nested merge" true
    (raises_invalid (fun () -> Obs.merge_tracks [ m ]))

let test_tracked_chrome_and_json () =
  let m = Obs.merge_tracks [ tracked_summary ~track:1 (); tracked_summary () ] in
  (* JSON: schema appears exactly once (top level only); nested tracks
     carry their ids and labels *)
  let js = Obs.to_json ~indent:true m in
  let count_schema s =
    let rec go from acc =
      match String.index_from_opt s from '"' with
      | None -> acc
      | Some i ->
          if
            i + 13 <= String.length s
            && String.sub s i 13 = {|"sasos-obs/1"|}
          then go (i + 1) (acc + 1)
          else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "schema only at top level" 1 (count_schema js);
  let doc = Json.parse js in
  (match Json.mem "tracks" doc with
  | Some (Json.Arr (t0 :: _)) ->
      Alcotest.(check (option int)) "track id in JSON" (Some 0)
        (Option.map int_of_float (Json.num "track" t0));
      Alcotest.(check (option string)) "label in JSON" (Some "shard 0")
        (Json.str "label" t0)
  | _ -> Alcotest.fail "no tracks array in JSON");
  (* Chrome: one process per track, flows bind begin to source pid and
     end to home pid with matching global ids *)
  let doc = Json.parse (Obs.to_chrome m) in
  let events =
    match Json.mem "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let pids =
    List.sort_uniq compare (List.filter_map (Json.num "pid") events)
  in
  Alcotest.(check (list (float 0.))) "one pid per shard" [ 0.; 1. ] pids;
  let flow ph =
    List.filter
      (fun e -> Json.str "ph" e = Some ph && Json.str "cat" e = Some "msg")
      events
  in
  let begins = flow "s" and ends = flow "f" in
  Alcotest.(check int) "flow begins" 2 (List.length begins);
  Alcotest.(check int) "flow ends" 2 (List.length ends);
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "flow end binds enclosing slice"
        (Some "e") (Json.str "bp" e))
    ends;
  (* every begin is on the track whose id it encodes (id = 7 + track) *)
  List.iter
    (fun e ->
      match (Json.num "id" e, Json.num "pid" e) with
      | Some id, Some pid ->
          Alcotest.(check (float 0.)) "begin on source track" (id -. 7.) pid
      | _ -> Alcotest.fail "flow begin missing id/pid")
    begins;
  (* per-shard gauges exported as a counter series *)
  let gauge_counters =
    List.filter
      (fun e ->
        Json.str "ph" e = Some "C" && Json.str "name" e = Some "gauges")
      events
  in
  Alcotest.(check bool) "gauges counter present" true (gauge_counters <> [])

(* -- per-core tracks from the multicore layer --------------------------- *)

(* Drive the real smp machine under an ambient collector, exactly as
   `sasos profile --cores 4 --chrome-out` does: each core records into
   its own track ("core N"), and every eager shootdown round emits a
   flow begin at the initiating core plus a flow end per remote core. *)
let smp_core_summaries () =
  let o = Obs.create () in
  Obs.with_ambient o (fun () ->
      let sys =
        Machines.make_smp Machines.Plb ~cores:4 ~purge:Smp.Eager
          Config.default
      in
      let d1 = System_ops.new_domain sys in
      let seg = System_ops.new_segment sys ~pages:4 () in
      System_ops.switch_domain sys d1;
      for _round = 1 to 3 do
        System_ops.attach sys d1 seg Rights.rw;
        for i = 0 to 15 do
          ignore
            (System_ops.access sys Access.Read
               (Segment.page_va seg (i land 3)))
        done;
        (* revoking the attachment forces an eager shootdown round *)
        System_ops.protect_segment sys d1 seg Rights.none
      done);
  match Smp.last () with
  | Some h -> h.Smp.h_summaries ()
  | None -> Alcotest.fail "no smp handle"

let test_smp_chrome_per_core () =
  let per_core = smp_core_summaries () in
  Alcotest.(check int) "one summary per core" 4 (List.length per_core);
  (* merge is input-order-invariant: any worker schedule (`--jobs`)
     hands the same set of tracks and must render the same bytes *)
  let chrome = Obs.to_chrome (Obs.merge_tracks per_core) in
  let chrome' = Obs.to_chrome (Obs.merge_tracks (List.rev per_core)) in
  Alcotest.(check string) "byte-identical across input orders" chrome chrome';
  let events =
    match Json.mem "traceEvents" (Json.parse chrome) with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let pids =
    List.sort_uniq compare (List.filter_map (Json.num "pid") events)
  in
  Alcotest.(check (list (float 0.))) "one Chrome process per core"
    [ 0.; 1.; 2.; 3. ] pids;
  (* process names come from the per-core track labels *)
  let names =
    List.filter_map
      (fun e ->
        if Json.str "name" e = Some "process_name" then
          match (Json.num "pid" e, Json.mem "args" e) with
          | Some pid, Some args -> (
              match Json.str "name" args with
              | Some n -> Some (int_of_float pid, n)
              | None -> None)
          | _ -> None
        else None)
      events
  in
  List.iter
    (fun c ->
      Alcotest.(check (option string))
        (Printf.sprintf "process %d named after its core" c)
        (Some (Printf.sprintf "core %d" c))
        (List.assoc_opt c names))
    [ 0; 1; 2; 3 ];
  (* shootdown arrows: every flow begin has one end per remote core,
     bound by a shared global id *)
  let flows ph =
    List.filter
      (fun e ->
        Json.str "ph" e = Some ph
        && Json.str "cat" e = Some "msg"
        && Json.str "name" e = Some "shootdown")
      events
  in
  let begins = flows "s" and ends = flows "f" in
  Alcotest.(check int) "one begin per eager revocation" 3
    (List.length begins);
  Alcotest.(check int) "one end per remote core" (3 * List.length begins)
    (List.length ends);
  List.iter
    (fun b ->
      let id = Json.num "id" b and bpid = Json.num "pid" b in
      let matching = List.filter (fun e -> Json.num "id" e = id) ends in
      Alcotest.(check int) "id binds begin to its three ends" 3
        (List.length matching);
      List.iter
        (fun e ->
          Alcotest.(check (option string)) "flow end binds enclosing slice"
            (Some "e") (Json.str "bp" e);
          Alcotest.(check bool) "end lands on a remote core" true
            (Json.num "pid" e <> bpid))
        matching)
    begins

(* -- injectable wall clock ---------------------------------------------- *)

let test_injectable_clock () =
  (* default clock pins wall_ns to zero: deterministic output *)
  let o = Obs.create () in
  let s = Obs.summarize o in
  Alcotest.(check int64) "default wall_ns is 0" 0L s.Obs.wall_ns;
  (* an injected clock is read at create and summarize *)
  let now = ref 100L in
  let o2 = Obs.create ~clock:(fun () -> !now) () in
  now := 350L;
  let s2 = Obs.summarize o2 in
  Alcotest.(check int64) "wall_ns = clock delta" 250L s2.Obs.wall_ns;
  (* phase timestamps stay on the virtual cycle clock regardless *)
  let s3, _ = run_profiled_workload () in
  List.iter
    (fun (e : Obs.phase_event) ->
      Alcotest.(check bool) "phase ts within virtual clock" true
        (e.Obs.ts >= 0 && e.Obs.ts + e.Obs.dur <= s3.Obs.clock))
    s3.Obs.phase_events

let suite =
  [
    Alcotest.test_case "phase misnesting" `Quick test_phase_misnesting;
    Alcotest.test_case "op misnesting" `Quick test_op_misnesting;
    Alcotest.test_case "register on disabled" `Quick test_register_on_disabled;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "disabled allocates nothing" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "span cycle conservation" `Quick
      test_span_cycle_conservation;
    Alcotest.test_case "merge doubles" `Quick test_merge_doubles;
    Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
    Alcotest.test_case "chrome parse-back" `Quick test_chrome_parse_back;
    Alcotest.test_case "flows and gauges" `Quick test_flows_and_gauges;
    Alcotest.test_case "flow budget and disabled nops" `Quick test_flow_budget;
    Alcotest.test_case "peek_samples mid-run" `Quick test_peek_samples_mid_run;
    Alcotest.test_case "merge_tracks" `Quick test_merge_tracks;
    Alcotest.test_case "tracked chrome and json" `Quick
      test_tracked_chrome_and_json;
    Alcotest.test_case "smp per-core chrome tracks" `Quick
      test_smp_chrome_per_core;
    Alcotest.test_case "injectable clock" `Quick test_injectable_clock;
  ]
