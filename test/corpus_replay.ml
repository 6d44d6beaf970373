(* Replay every corpus trace named on the command line against all
   machine models and compare access outcomes with the `# expect` header
   recorded when the counterexample was minimized (see lib/check/corpus).
   Each trace is replayed on both execution engines (scalar event
   interpreter vs trace-compiled batch decode loop) across the multicore
   matrix (1 core, plus 4 cores under each purge policy — the smp layer
   widens the expected outcomes to the mirror's permitted set, see
   Oracle.run_multi) — so the corpus gates every implementation pairing
   under `dune runtest`: once a divergence has been caught and
   minimized, it can never silently return on any of them. *)

let engines = [ Sasos.Engine.Scalar; Sasos.Engine.Batch ]

let smp_configs =
  (1, Sasos.Smp.Eager)
  :: List.map (fun p -> (4, p)) Sasos.Smp.all_purges

(* Replays fan out over the same worker pool the sharded simulation uses
   (Runner.map_pool, jobs = 2), so the corpus also gates the pooled
   execution path.  The engine/smp globals stay in the outer
   sequential loops — they are set once before each pool batch and only
   read inside it — and results come back in file order, keeping the
   output byte-identical to a sequential run. *)
let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    print_endline "corpus: no trace files (add some under test/corpus/)";
    exit 0
  end;
  let failures = ref 0 in
  List.iter
    (fun engine ->
      List.iter
        (fun (cores, purge) ->
          Sasos.Engine.set_default_engine engine;
          Sasos.Smp.set_cores cores;
          Sasos.Smp.set_purge purge;
          let tag =
            Printf.sprintf "%s/%dc-%s"
              (Sasos.Engine.to_string engine)
              cores (Sasos.Smp.purge_to_string purge)
          in
          let results =
            Sasos.Runner.map_pool ~jobs:2
              (fun path -> (path, Sasos.Check.Corpus.replay_file path))
              files
          in
          List.iter
            (fun (path, outcome) ->
              match outcome with
              | Ok () ->
                  Printf.printf "  ok   %-18s %s\n" tag
                    (Filename.basename path)
              | Error msg ->
                  incr failures;
                  Printf.printf "  FAIL %-18s %s: %s\n" tag
                    (Filename.basename path) msg)
            results)
        smp_configs)
    engines;
  Printf.printf "corpus: %d trace(s) x %d engines x %d smp configs, %d failing\n"
    (List.length files) (List.length engines) (List.length smp_configs)
    !failures;
  if !failures > 0 then exit 1
