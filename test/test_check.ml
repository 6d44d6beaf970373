(* The conformance subsystem tested against itself: oracle semantics on
   hand-written scripts, generator well-formedness and reproducibility,
   shrinker minimality under planted bugs, corpus round trips, the
   equivalence of a script and its trace events, and the
   jobs-invariance of the harness report. *)

open Sasos
module Op = Check.Op
module Oracle = Check.Oracle
module Gen = Check.Gen
module Exec = Check.Exec
module Mutate = Check.Mutate
module Shrink = Check.Shrink
module Corpus = Check.Corpus
module Harness = Check.Harness

let geom = Op.default_geom
let rights = Alcotest.testable Rights.pp Rights.equal

let run_ops ops =
  List.fold_left (fun t op -> fst (Oracle.step t op)) (Oracle.create geom) ops

(* page 0 lives in segment 0 *)
let test_oracle_attach_grant () =
  let t = run_ops [ Op.Attach { d = 1; s = 0; r = Rights.r } ] in
  Alcotest.check rights "attachment rights" Rights.r (Oracle.rights t ~d:1 ~p:0);
  Alcotest.check rights "other domain none" Rights.none
    (Oracle.rights t ~d:2 ~p:0);
  let t =
    run_ops
      [
        Op.Attach { d = 1; s = 0; r = Rights.r };
        Op.Grant { d = 1; p = 0; r = Rights.rwx };
      ]
  in
  Alcotest.check rights "override wins" Rights.rwx (Oracle.rights t ~d:1 ~p:0);
  Alcotest.check rights "other pages keep attachment" Rights.r
    (Oracle.rights t ~d:1 ~p:1)

let test_oracle_detach_clears_overrides () =
  let t =
    run_ops
      [
        Op.Attach { d = 1; s = 0; r = Rights.rw };
        Op.Grant { d = 1; p = 0; r = Rights.rwx };
        Op.Detach { d = 1; s = 0 };
      ]
  in
  Alcotest.check rights "attachment gone" Rights.none
    (Oracle.rights t ~d:1 ~p:1);
  Alcotest.check rights "override gone too" Rights.none
    (Oracle.rights t ~d:1 ~p:0)

let test_oracle_protect_all_scope () =
  (* protect_all rewrites attached domains and override holders; a domain
     with no standing on the page is untouched *)
  let t =
    run_ops
      [
        Op.Attach { d = 1; s = 0; r = Rights.rw };
        Op.Grant { d = 2; p = 0; r = Rights.r };
        Op.Protect_all { p = 0; r = Rights.none };
      ]
  in
  Alcotest.check rights "attached domain revoked" Rights.none
    (Oracle.rights t ~d:1 ~p:0);
  Alcotest.check rights "override holder revoked" Rights.none
    (Oracle.rights t ~d:2 ~p:0);
  Alcotest.check rights "attachment on other pages intact" Rights.rw
    (Oracle.rights t ~d:1 ~p:1);
  let t' = run_ops [ Op.Protect_all { p = 0; r = Rights.rw } ] in
  Alcotest.check rights "bystander gains nothing" Rights.none
    (Oracle.rights t' ~d:3 ~p:0)

let test_oracle_destroy_segment_keeps_orphan_override () =
  (* an override held without an attachment survives destroy_segment,
     exactly as in the Os_core tables *)
  let t =
    run_ops
      [
        Op.Attach { d = 1; s = 0; r = Rights.rw };
        Op.Grant { d = 2; p = 0; r = Rights.r };
        Op.Destroy_segment { s = 0 };
      ]
  in
  Alcotest.check rights "attached domain detached" Rights.none
    (Oracle.rights t ~d:1 ~p:0);
  Alcotest.check rights "orphan override survives" Rights.r
    (Oracle.rights t ~d:2 ~p:0)

let test_oracle_access_outcomes () =
  let t = run_ops [ Op.Attach { d = 0; s = 0; r = Rights.rx } ] in
  let outcome op =
    match Oracle.step t op with
    | _, Some o -> o
    | _, None -> Alcotest.fail "expected an outcome"
  in
  let check_outcome name want op =
    Alcotest.(check bool) name true (Access.outcome_equal want (outcome op))
  in
  check_outcome "read ok" Access.Ok (Op.Acc { kind = Access.Read; p = 0 });
  check_outcome "exec ok" Access.Ok (Op.Acc { kind = Access.Execute; p = 0 });
  check_outcome "write faults" Access.Protection_fault
    (Op.Acc { kind = Access.Write; p = 0 });
  check_outcome "unattached page faults" Access.Protection_fault
    (Op.Acc { kind = Access.Read; p = geom.Op.pages_per_seg })

let test_gen_valid_and_reproducible () =
  for seed = 1 to 50 do
    let script = Gen.script (Util.Prng.create ~seed) geom ~ops:120 in
    Alcotest.(check int) "exact length" 120 (List.length script);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d valid" seed)
      true (Op.valid geom script);
    let again = Gen.script (Util.Prng.create ~seed) geom ~ops:120 in
    Alcotest.(check bool) "reproducible" true (script = again)
  done

let test_machines_match_oracle () =
  (* the live acceptance invariant in miniature: no divergence, no
     over-allow on unmutated runs *)
  let r = Harness.run ~ops:150 ~scripts:30 ~seed:7 () in
  Alcotest.(check int) "no divergence" 0 r.Harness.divergent;
  Alcotest.(check int) "no over-allow" 0 r.Harness.over_allows;
  Alcotest.(check bool) "not failed" false (Harness.failed r)

let test_mutations_detected_and_shrunk () =
  List.iter
    (fun m ->
      let r =
        Harness.run ~mutation:m ~ops:200 ~scripts:40 ~seed:42 ()
      in
      Alcotest.(check bool)
        (m.Mutate.name ^ " detected")
        true (Harness.failed r);
      match r.Harness.counterexamples with
      | [] -> Alcotest.fail (m.Mutate.name ^ ": no counterexample minimized")
      | cex :: _ ->
          let n = List.length cex.Harness.script in
          if n > 15 then
            Alcotest.fail
              (Printf.sprintf "%s: shrunk to %d ops (> 15): %s" m.Mutate.name
                 n
                 (Op.show_script cex.Harness.script));
          (* the minimized script still fails under the mutation *)
          let oracle = Oracle.run geom cex.Harness.script in
          let still_fails =
            List.exists
              (fun (_, v) ->
                match Exec.run ~keep:m.Mutate.keep geom cex.Harness.script v with
                | { Exec.outcomes; over_allow } ->
                    over_allow
                    || not (List.for_all2 Access.outcome_equal outcomes oracle)
                | exception _ -> true)
              Machines.all
          in
          Alcotest.(check bool)
            (m.Mutate.name ^ " minimized script still fails")
            true still_fails)
    Mutate.all

let test_shrink_deletes_noise () =
  (* failing predicate: script grants rw on page 0 to domain 0; everything
     else is noise the shrinker must remove *)
  let noise =
    [
      Op.Attach { d = 1; s = 1; r = Rights.r };
      Op.Switch { d = 2 };
      Op.Acc { kind = Access.Read; p = 5 };
      Op.Grant { d = 0; p = 0; r = Rights.rw };
      Op.Unmap { p = 3 };
      Op.Protect_segment { d = 3; s = 2; r = Rights.rwx };
    ]
  in
  let failing s =
    List.exists (function Op.Grant { d = 0; p = 0; _ } -> true | _ -> false) s
  in
  let shrunk = Shrink.minimize ~valid:(Op.valid geom) ~failing noise in
  Alcotest.(check int) "single op left" 1 (List.length shrunk);
  (* parameter shrinking drives the payload rights toward none *)
  match shrunk with
  | [ Op.Grant { d = 0; p = 0; r } ] ->
      Alcotest.check rights "rights minimized" Rights.none r
  | _ -> Alcotest.fail ("unexpected: " ^ Op.show_script shrunk)

let test_corpus_roundtrip () =
  let script =
    [
      Op.Attach { d = 1; s = 0; r = Rights.r };
      Op.Switch { d = 1 };
      Op.Acc { kind = Access.Read; p = 0 };
      Op.Acc { kind = Access.Write; p = 0 };
      Op.Detach { d = 1; s = 0 };
      Op.Acc { kind = Access.Read; p = 0 };
    ]
  in
  let expected = Oracle.run geom script in
  Alcotest.(check string) "outcome string" "off"
    (Corpus.outcomes_string expected);
  let path = Filename.temp_file "sasos_corpus" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Corpus.save ~path ~note:"unit test" geom script ~expected;
      (match Corpus.load path with
      | Error msg -> Alcotest.fail msg
      | Ok (events, exp') ->
          Alcotest.(check bool) "expected outcomes preserved" true
            (List.for_all2 Access.outcome_equal expected exp');
          Alcotest.(check bool) "prologue present" true
            (List.length events
            = geom.Op.domains + geom.Op.segments + 1 + List.length script));
      match Corpus.replay_file path with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("replay: " ^ msg))

let test_corpus_detects_tampering () =
  (* flip an expected outcome: the replay must now fail and say where *)
  let script = [ Op.Acc { kind = Access.Read; p = 0 } ] in
  let events = Op.to_events geom script in
  match Corpus.replay_events events ~expected:[ Access.Ok ] with
  | Ok () -> Alcotest.fail "must diverge: page 0 is unattached"
  | Error msg ->
      Alcotest.(check bool) "names a machine" true (String.length msg > 0)

(* -- script <-> trace events ------------------------------------------- *)

let gen_case = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 120))

let print_case (seed, ops) =
  Printf.sprintf "seed %d, %d ops: %s" seed ops
    (Op.show_script (Gen.script (Util.Prng.create ~seed) geom ~ops))

let recorder sys =
  let r = Trace.Recorder.wrap sys in
  ( r,
    Os.System_intf.Packed
      ((module Trace.Recorder : Os.System_intf.SYSTEM
         with type t = Trace.Recorder.t),
        r) )

(* Exec.mli promises the same prologue order as Op.to_events; a corpus
   trace is saved with to_events and replayed in place of the script it
   was minimized from, so the two must issue identical calls. *)
let prop_exec_issues_to_events =
  QCheck2.Test.make ~count:40 ~print:print_case
    ~name:"exec issues exactly the calls of to_events" gen_case
    (fun (seed, ops) ->
      let script = Gen.script (Util.Prng.create ~seed) geom ~ops in
      let r, sys = recorder (Machines.make Machines.Plb Os.Config.default) in
      ignore (Exec.run_packed geom script sys);
      let got = Trace.Recorder.events r and want = Op.to_events geom script in
      List.length got = List.length want
      && List.for_all2 Trace.Event.equal got want)

(* The player and the executor are two routes to the same SYSTEM calls:
   replaying a script's events reproduces its direct run, outcomes and
   every metric counter, on every machine. *)
let prop_replay_matches_exec =
  QCheck2.Test.make ~count:25 ~print:print_case
    ~name:"replayed to_events = direct execution on every machine" gen_case
    (fun (seed, ops) ->
      let script = Gen.script (Util.Prng.create ~seed) geom ~ops in
      let events = Op.to_events geom script in
      List.for_all
        (fun (_, v) ->
          let direct = Machines.make v Os.Config.default in
          let want = (Exec.run_packed geom script direct).Exec.outcomes in
          let replayed = Machines.make v Os.Config.default in
          match Trace.Player.replay events replayed with
          | Error _ -> false
          | Ok got ->
              List.length got = List.length want
              && List.for_all2 Access.outcome_equal got want
              && Hw.Metrics.fields (Os.System_ops.metrics replayed)
                 = Hw.Metrics.fields (Os.System_ops.metrics direct))
        Machines.all)

(* of_events is how a persisted corpus trace gets back to the script the
   multicore oracle mirror reruns. *)
let prop_of_events_inverts =
  QCheck2.Test.make ~count:60 ~print:print_case
    ~name:"of_events inverts to_events" gen_case (fun (seed, ops) ->
      let script = Gen.script (Util.Prng.create ~seed) geom ~ops in
      match Op.of_events (Op.to_events geom script) with
      | Error _ -> false
      | Ok (g, s) -> g = geom && s = script)

let test_of_events_rejects () =
  let module E = Trace.Event in
  let seg pages = E.New_segment { pages; align_shift = None; name = "" } in
  let rejects what events =
    match Op.of_events events with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  rejects "empty trace" [];
  rejects "no domains" [ seg 4; E.Switch { pd = 0 } ];
  rejects "no segments" [ E.New_domain; E.Switch { pd = 0 } ];
  rejects "segments differ in size"
    [ E.New_domain; seg 4; seg 2; E.Switch { pd = 0 } ];
  rejects "no closing switch" [ E.New_domain; seg 4 ];
  rejects "switch to domain 1"
    [ E.New_domain; E.New_domain; seg 4; E.Switch { pd = 1 } ];
  rejects "domain after the prologue"
    [ E.New_domain; seg 4; E.Switch { pd = 0 }; E.New_domain ];
  rejects "charge in the script"
    [
      E.New_domain;
      seg 4;
      E.Switch { pd = 0 };
      E.Charge { cycles = 1; page_ins = 0; page_outs = 0 };
    ]

let test_report_jobs_invariant () =
  let text jobs =
    Harness.report_text (Harness.run ~jobs ~ops:60 ~scripts:23 ~seed:3 ())
  in
  let t1 = text 1 in
  Alcotest.(check bool) "jobs=1 vs jobs=4 identical" true (t1 = text 4);
  (* ... and under a mutation, where counterexamples are in play *)
  let m = Option.get (Mutate.find "skip-detach") in
  let mtext jobs =
    Harness.report_text
      (Harness.run ~jobs ~mutation:m ~ops:80 ~scripts:17 ~seed:5 ())
  in
  Alcotest.(check bool) "mutated reports identical" true (mtext 1 = mtext 3)

let suite =
  [
    Alcotest.test_case "oracle: attach/grant" `Quick test_oracle_attach_grant;
    Alcotest.test_case "oracle: detach clears overrides" `Quick
      test_oracle_detach_clears_overrides;
    Alcotest.test_case "oracle: protect_all scope" `Quick
      test_oracle_protect_all_scope;
    Alcotest.test_case "oracle: destroy_segment orphan override" `Quick
      test_oracle_destroy_segment_keeps_orphan_override;
    Alcotest.test_case "oracle: access outcomes" `Quick
      test_oracle_access_outcomes;
    Alcotest.test_case "gen: valid + reproducible" `Quick
      test_gen_valid_and_reproducible;
    Alcotest.test_case "machines match oracle" `Quick test_machines_match_oracle;
    Alcotest.test_case "mutations detected, shrunk <= 15 ops" `Slow
      test_mutations_detected_and_shrunk;
    Alcotest.test_case "shrink deletes noise" `Quick test_shrink_deletes_noise;
    Alcotest.test_case "corpus roundtrip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus detects tampering" `Quick
      test_corpus_detects_tampering;
    Qprop.to_alcotest prop_exec_issues_to_events;
    Qprop.to_alcotest prop_replay_matches_exec;
    Qprop.to_alcotest prop_of_events_inverts;
    Alcotest.test_case "of_events rejects a malformed trace" `Quick
      test_of_events_rejects;
    Alcotest.test_case "report jobs-invariant" `Quick test_report_jobs_invariant;
  ]
