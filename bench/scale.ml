(* Million-domain sharded-simulation benchmark (ISSUE 8 acceptance rig).

   Prepares the same global population — one million protection domains,
   ten million segment pages — twice: once as a single machine instance
   (shards=1) and once partitioned over four shards (shards=4, each with
   its own TLB/PLB/IPT/frame pool/segment tables), then times the round
   loop of both. The active window is sized so its working set fits the
   four shards' aggregate reach but thrashes a single machine's, at both
   levels of the hierarchy: the TLB/PLB (16% vs ~90% TLB hit at the
   defaults) and physical memory itself (the ~3.6k-page active set
   overflows one 2k-frame pool but sits comfortably in four). The
   single-instance rig therefore takes not just the refill path — kernel
   entry, segment-table bsearch, IPT probe — but the full page-replacement
   path (FIFO eviction, per-page cache flush, page-out/page-in) on a large
   fraction of accesses, and the sharded rig is proportionally faster in
   real time, single-threaded: the speedup is aggregate hardware reach,
   not parallelism (rounds run with jobs=1 in the calling domain).

   Also enforces the probe-path allocation guardrail: with churn switched
   off on the same warmed rigs (Shard.set_churn, churn apply paths may
   allocate by design), a round window must allocate fewer than 0.01
   minor-heap words per access on both rigs.

     scale [--domains N] [--pages N] [--active N] [--burst N]
           [--rounds N] [--warm N] [--churn P] [--shards-hi S]
           [--json FILE] [--rev REV] [--min-shard-speedup X]

   --min-shard-speedup defaults to 0 (report only): wall-clock ratios are
   noisy on shared CI runners, so the CI smoke job opts into a
   conservative floor while the allocation guardrail always gates. *)

open Sasos

let trials = 3

let usage =
  "usage: scale [--domains N] [--pages N] [--active N] [--burst N]\n\
  \             [--rounds N] [--warm N] [--churn P] [--shards-hi S]\n\
  \             [--json FILE] [--rev REV] [--min-shard-speedup X]"

let sink = ref 0

(* Gc.minor_words (not quick_stat): on OCaml 5.1 quick_stat's minor_words
   only advances at minor collections, so an audit window shorter than one
   minor-heap fill reads as zero allocation no matter what the code does. *)
let alloc_words_per_access rig ~rounds ~accesses_per_round =
  let w0 = Gc.minor_words () in
  Shard.rounds rig rounds;
  let w1 = Gc.minor_words () in
  Float.max 0.0 (w1 -. w0 -. 2.0 (* the boxed float from reading w0 *))
  /. float_of_int (rounds * accesses_per_round)

let () =
  let domains = ref 1_000_000
  and pages = ref 10_000_000
  and active = ref 112
  and burst = ref 16
  and rounds = ref 300
  and warm = ref 40
  and churn = ref 0.01
  and shards_hi = ref 4
  and json = ref ""
  and rev = ref "unknown"
  and min_speedup = ref 0.0 in
  let rec parse = function
    | [] -> ()
    | "--domains" :: n :: rest -> domains := int_of_string n; parse rest
    | "--pages" :: n :: rest -> pages := int_of_string n; parse rest
    | "--active" :: n :: rest -> active := int_of_string n; parse rest
    | "--burst" :: n :: rest -> burst := int_of_string n; parse rest
    | "--rounds" :: n :: rest -> rounds := int_of_string n; parse rest
    | "--warm" :: n :: rest -> warm := int_of_string n; parse rest
    | "--churn" :: x :: rest -> churn := float_of_string x; parse rest
    | "--shards-hi" :: n :: rest -> shards_hi := int_of_string n; parse rest
    | "--json" :: path :: rest -> json := path; parse rest
    | "--rev" :: r :: rest -> rev := r; parse rest
    | "--min-shard-speedup" :: x :: rest ->
        min_speedup := float_of_string x;
        parse rest
    | arg :: _ ->
        prerr_endline ("scale: unknown argument " ^ arg);
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cfg shards =
    {
      Shard.default with
      Shard.domains = !domains;
      pages = !pages;
      shards;
      rounds = 0;
      active = !active;
      burst = !burst;
      rotate = 0;
      churn = !churn;
      pages_per_seg = 16;
      segs_per_dom = 2;
      tlb_entries = 1024;
      plb_entries = 1024;
      (* per shard: under the ~3.6k-page active working set, over a
         quarter of it — the frame-capacity cliff between the rigs *)
      frames = 1024;
      variant = Machines.Plb;
      seed = 42;
    }
  in
  let accesses_per_round = !active * !burst in
  let prep shards =
    let t0 = Unix.gettimeofday () in
    let rig = Shard.prepare (cfg shards) in
    let t1 = Unix.gettimeofday () in
    Printf.printf "  prepared %d shard(s): %s domains, %s pages in %.1f s\n%!"
      shards
      (Util.Tablefmt.cell_int !domains)
      (Util.Tablefmt.cell_int !pages)
      (t1 -. t0);
    Shard.rounds rig !warm;
    rig
  in
  Printf.printf
    "== scale: %s domains / %s pages, 1 shard vs %d shards (plb, packed) ==\n%!"
    (Util.Tablefmt.cell_int !domains)
    (Util.Tablefmt.cell_int !pages)
    !shards_hi;
  let rigs = [| (1, prep 1); (!shards_hi, prep !shards_hi) |] in
  (* interleave trials so shared-host noise hits both rigs alike; each rig
     keeps its best trial *)
  let best = Array.make (Array.length rigs) infinity in
  for _ = 1 to trials do
    Array.iteri
      (fun i (_, rig) ->
        let t0 = Unix.gettimeofday () in
        Shard.rounds rig !rounds;
        let t1 = Unix.gettimeofday () in
        if t1 -. t0 < best.(i) then best.(i) <- t1 -. t0)
      rigs
  done;
  let describe (shards, rig) rate alloc =
    let r = Shard.report rig in
    let m = r.Shard.aggregate_traffic in
    let hit h m' = 100.0 *. float_of_int h /. float_of_int (max 1 (h + m')) in
    Printf.printf
      "  %d shard(s): %12.0f accesses/sec  %.5f words/access  tlb %5.1f%% \
       hit  plb %5.1f%% hit  %.4f faults/access  %6.2f sim-cycles/access\n"
      shards rate alloc
      (hit m.Metrics.tlb_hits m.Metrics.tlb_misses)
      (hit m.Metrics.plb_hits m.Metrics.plb_misses)
      (float_of_int m.Metrics.page_faults
      /. float_of_int (max 1 m.Metrics.accesses))
      (float_of_int m.Metrics.cycles /. float_of_int (max 1 m.Metrics.accesses))
  in
  (* probe-path allocation audit on the warmed rigs, churn off: the round
     loop itself (switch + access path) must not allocate *)
  let audit_rounds = max 20 (!rounds / 4) in
  let allocs =
    Array.map
      (fun (_, rig) ->
        Shard.set_churn rig 0.0;
        Shard.rounds rig 2 (* drain in-flight churn, settle steady state *);
        let a = alloc_words_per_access rig ~rounds:audit_rounds ~accesses_per_round in
        Shard.set_churn rig !churn;
        a)
      rigs
  in
  let rates =
    Array.mapi
      (fun i _ -> float_of_int (!rounds * accesses_per_round) /. best.(i))
      rigs
  in
  Array.iteri (fun i rg -> describe rg rates.(i) allocs.(i)) rigs;
  let shard_speedup = rates.(1) /. rates.(0) in
  Printf.printf "  %d-shard/1-shard speedup %.2fx\n" !shards_hi shard_speedup;
  Array.iteri
    (fun i (shards, _) ->
      if allocs.(i) > 0.01 then begin
        Printf.printf
          "FAIL: %d-shard probe path allocates (%.5f > 0.01 minor \
           words/access)\n"
          shards allocs.(i);
        exit 1
      end)
    rigs;
  if !json <> "" then begin
    let oc = open_out !json in
    Printf.fprintf oc
      "{\n\
      \  \"schema\": \"sasos-bench/2\",\n\
      \  \"benchmark\": \"scale\",\n\
      \  \"domains\": %d,\n\
      \  \"pages\": %d,\n\
      \  \"active\": %d,\n\
      \  \"burst\": %d,\n\
      \  \"rounds\": %d,\n\
      \  \"churn\": %.4f,\n\
      \  \"git_rev\": %S,\n\
      \  \"rows\": [\n%s\n\
      \  ],\n\
      \  \"shard_speedup\": %.3f\n\
       }\n"
      !domains !pages !active !burst !rounds !churn !rev
      (String.concat ",\n"
         (Array.to_list
            (Array.mapi
               (fun i (shards, _) ->
                 Printf.sprintf
                   "    { \"bench\": \"scale\", \"shards\": %d, \
                    \"accesses_per_sec\": %.0f, \
                    \"alloc_words_per_access\": %.5f }"
                   shards rates.(i) allocs.(i))
               rigs)))
      shard_speedup;
    close_out oc;
    Printf.printf "wrote %s\n" !json
  end;
  if shard_speedup < !min_speedup then begin
    Printf.printf "FAIL: %d-shard speedup %.2fx below required %.2fx\n"
      !shards_hi shard_speedup !min_speedup;
    exit 1
  end;
  ignore !sink
