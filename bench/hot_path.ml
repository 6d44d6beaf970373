(* Hot-path benchmark for the protection structures and engines.

   Runs the same mixed access loop — PLB probe, TLB lookup + used/dirty
   bookkeeping or install, page-group check — on the int-lane caches two
   ways:

     scalar   the public API, one call per structure access
     batch    the Kernel batch engine: the loop's operand pattern (period
              128 iterations = 384 ops) is compiled once into flat int
              lanes with every hash and set base precomputed, then
              replayed by the tail-recursive decode loop

   reports accesses/sec for each and the batch/scalar speedup, then
   enforces the zero-allocation guardrail on both loops: minor-heap words
   per access must stay under 0.01 (the obs disabled-path threshold),
   else exit 1. Before timing anything it replays the pattern on two
   fresh rigs — scalar API vs batch — and requires identical accumulator
   sums and identical hit/miss/eviction counters on all three structures,
   so a decode-loop bug fails the bench rather than inflating it.

     hot_path [--iters N] [--json FILE] [--policy lru|fifo|random]
              [--rev REV] [--min-batch-speedup X]

   --min-batch-speedup defaults to 0 (report only): wall-clock ratios are
   too noisy on shared CI runners to gate unconditionally, so the CI
   smoke job opts into a conservative floor while the allocation
   guardrail is always enforced. Every JSON row keeps
   ["backend": "packed"], the discriminator the BENCH_0006 trend series
   are keyed on. All three replacement policies are measurable, including
   Random: victim draws come from a per-cache splitmix int state
   (Prng.Split), so a full-row eviction costs one add and two
   xor-shift-multiplies and allocates nothing. *)

open Sasos

type rig = {
  plb : Hw.Plb.t;
  tlb : Hw.Tlb.t;
  pgc : Hw.Page_group_cache.t;
  pds : Addr.Pd.t array;
}

let make_rig ~policy =
  let plb = Hw.Plb.create ~policy ~sets:16 ~ways:4 () in
  let tlb = Hw.Tlb.create ~policy ~sets:16 ~ways:4 () in
  let pgc = Hw.Page_group_cache.create ~policy ~entries:8 () in
  let pds = Array.init 8 (fun i -> Addr.Pd.of_int (i + 1)) in
  (* working set slightly over capacity so the loop mixes hits, misses,
     installs and evictions *)
  for i = 0 to 95 do
    Hw.Plb.install plb ~pd:pds.(i land 7)
      ~va:((i land 127) * 0x1000)
      ~shift:12 Addr.Rights.rw
  done;
  for aid = 1 to 6 do
    Hw.Page_group_cache.load pgc ~aid ~write_disabled:(aid land 1 = 1)
  done;
  { plb; tlb; pgc; pds }

(* three counted structure accesses per iteration *)
let accesses_per_iter = 3

let run_loop rig n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let pd = Array.unsafe_get rig.pds (i land 7) in
    let va = (i * 7) land 127 * 0x1000 in
    acc := !acc + Hw.Plb.lookup_bits rig.plb ~pd ~va;
    let vpn = (i * 3) land 63 in
    let e = Hw.Tlb.lookup rig.tlb ~space:0 ~vpn in
    if e <> Hw.Tlb.absent then begin
      Hw.Tlb.mark_used rig.tlb ~space:0 ~vpn ~write:(i land 1 = 0);
      acc := !acc + Hw.Tlb.pfn_of e
    end
    else
      Hw.Tlb.install rig.tlb ~space:0 ~vpn
        (Hw.Tlb.pack ~pfn:vpn ~rights:Addr.Rights.rw ~aid:(vpn land 7)
           ~dirty:false ~referenced:false);
    acc := !acc + Hw.Page_group_cache.check_bits rig.pgc ~aid:(i land 7)
  done;
  !acc

(* Every operand stream in run_loop repeats with period lcm(8, 128, 64, 2)
   = 128 iterations, so one compiled period replayed with ~reps covers the
   exact same access sequence. *)
let period = 128

let kernel_ops () =
  List.concat
    (List.init period (fun i ->
         let vpn = (i * 3) land 63 in
         [
           Kernel.Plb_find
             {
               pd = (i land 7) + 1;
               va = (i * 7) land 127 * 0x1000;
               shift = 12;
             };
           Kernel.Tlb_access
             {
               space = 0;
               vpn;
               write = i land 1 = 0;
               refill_pfn = vpn;
               refill_aid = vpn land 7;
               refill_rights = Addr.Rights.rw;
             };
           Kernel.Pg_check { aid = i land 7 };
         ]))

let compile_rig rig =
  Kernel.compile ~plb:rig.plb ~tlb:rig.tlb ~pgc:rig.pgc (kernel_ops ())

(* Differential gate ahead of any timing: scalar API loop and batch decode
   loop on fresh same-seed rigs must produce the same accumulator sum and
   the same hit/miss/eviction counters on all three structures. *)
let stats_of rig =
  List.map
    (fun cache ->
      Hw.Packed_cache.(hits cache, misses cache, evictions cache, length cache))
    [
      Hw.Plb.raw_cache rig.plb;
      Hw.Tlb.raw_cache rig.tlb;
      Hw.Page_group_cache.raw_cache rig.pgc;
    ]

let lockstep_gate ~policy =
  let n = 100 * period in
  let scalar_rig = make_rig ~policy in
  let s = run_loop scalar_rig n in
  let batch_rig = make_rig ~policy in
  let b = Kernel.run ~reps:(n / period) (compile_rig batch_rig) in
  if s <> b then begin
    Printf.printf
      "FAIL: batch decode diverges from scalar loop (policy %s): sum %d vs \
       %d over %d iterations\n"
      (Hw.Replacement.to_string policy)
      s b n;
    exit 1
  end;
  if stats_of scalar_rig <> stats_of batch_rig then begin
    Printf.printf
      "FAIL: batch decode diverges from scalar loop (policy %s): \
       hit/miss/eviction counters differ after %d iterations\n"
      (Hw.Replacement.to_string policy)
      n;
    exit 1
  end

let sink = ref 0
let trials = 7

(* Same pattern as bench/main.ml's obs_guardrail: minor_words delta over a
   long run, amortizing the handful of one-time words to noise.
   Gc.minor_words, not quick_stat: on OCaml 5.1 quick_stat's minor_words
   only advances at minor collections, so a window shorter than one
   minor-heap fill would read as zero no matter what the code does. *)
let alloc_of f ~accesses =
  let w0 = Gc.minor_words () in
  sink := !sink + f ();
  let w1 = Gc.minor_words () in
  Float.max 0.0 (w1 -. w0 -. 2.0 (* the boxed float from reading w0 *))
  /. float_of_int accesses

type row = { engine : string; rate : float; alloc : float }

(* A prepared measurand: a warmed-up rig plus the closures to time it and
   to audit its allocation. *)
type measurand = {
  m_engine : string;
  m_accesses : int;  (* counted accesses per timed trial *)
  m_run : unit -> int;
  m_alloc : unit -> float;
}

let prep_scalar ~policy ~iters =
  let rig = make_rig ~policy in
  sink := !sink + run_loop rig 50_000 (* warm-up *);
  let alloc_iters = 200_000 in
  {
    m_engine = "scalar";
    m_accesses = iters * accesses_per_iter;
    m_run = (fun () -> run_loop rig iters);
    m_alloc =
      (fun () ->
        alloc_of
          (fun () -> run_loop rig alloc_iters)
          ~accesses:(alloc_iters * accesses_per_iter));
  }

let prep_batch ~policy ~iters =
  let rig = make_rig ~policy in
  let prog = compile_rig rig in
  let reps = max 1 (iters / period) in
  sink := !sink + Kernel.run ~reps:(max 1 (50_000 / period)) prog (* warm-up *);
  let alloc_reps = max 1 (200_000 / period) in
  {
    m_engine = "batch";
    m_accesses = reps * period * accesses_per_iter;
    m_run = (fun () -> Kernel.run ~reps prog);
    m_alloc =
      (fun () ->
        alloc_of
          (fun () -> Kernel.run ~reps:alloc_reps prog)
          ~accesses:(alloc_reps * period * accesses_per_iter));
  }

(* Interleave the timing trials round-robin across all measurands instead
   of finishing one measurand before starting the next: shared-host noise
   arrives in multi-second windows, so back-to-back trials see the same
   conditions and the reported speedups are ratios of like against like.
   Each measurand keeps its best (minimum) trial. *)
let measure_rows ms =
  let n = Array.length ms in
  let best = Array.make n infinity in
  for _ = 1 to trials do
    Array.iteri
      (fun i m ->
        let t0 = Unix.gettimeofday () in
        sink := !sink + m.m_run ();
        let t1 = Unix.gettimeofday () in
        if t1 -. t0 < best.(i) then best.(i) <- t1 -. t0)
      ms
  done;
  Array.to_list
    (Array.mapi
       (fun i m ->
         {
           engine = m.m_engine;
           rate = float_of_int m.m_accesses /. best.(i);
           alloc = m.m_alloc ();
         })
       ms)

let usage =
  "usage: hot_path [--iters N] [--json FILE] [--policy lru|fifo|random]\n\
  \                [--rev REV] [--min-batch-speedup X]"

let () =
  let iters = ref 2_000_000
  and json = ref ""
  and policy = ref Hw.Replacement.Lru
  and rev = ref "unknown"
  and min_batch_speedup = ref 0.0 in
  let rec parse = function
    | [] -> ()
    | "--iters" :: n :: rest ->
        iters := int_of_string n;
        parse rest
    | "--json" :: path :: rest ->
        json := path;
        parse rest
    | "--policy" :: p :: rest -> begin
        match Hw.Replacement.of_string p with
        | Some pol ->
            policy := pol;
            parse rest
        | None ->
            prerr_endline ("hot_path: unknown policy " ^ p);
            exit 2
      end
    | "--rev" :: r :: rest ->
        rev := r;
        parse rest
    | "--min-batch-speedup" :: x :: rest ->
        min_batch_speedup := float_of_string x;
        parse rest
    | arg :: _ ->
        prerr_endline ("hot_path: unknown argument " ^ arg);
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let policy = !policy in
  lockstep_gate ~policy;
  let rows =
    measure_rows
      [| prep_scalar ~policy ~iters:!iters; prep_batch ~policy ~iters:!iters |]
  in
  let rate engine = (List.find (fun r -> r.engine = engine) rows).rate in
  let batch_speedup = rate "batch" /. rate "scalar" in
  Printf.printf "== hot path: %d iterations x %d accesses, policy %s ==\n"
    !iters accesses_per_iter
    (Hw.Replacement.to_string policy);
  List.iter
    (fun r ->
      Printf.printf "  %-6s %12.0f accesses/sec  %.5f words/access\n" r.engine
        r.rate r.alloc)
    rows;
  Printf.printf "  batch/scalar speedup %.2fx\n" batch_speedup;
  (* allocation guardrail: every loop must be free of per-access
     allocation, under every policy (Random included — its victim draw is
     an int-state splitmix step) *)
  List.iter
    (fun r ->
      if r.alloc > 0.01 then begin
        Printf.printf
          "FAIL: %s hot path allocates (%.5f > 0.01 minor words/access)\n"
          r.engine r.alloc;
        exit 1
      end)
    rows;
  if !json <> "" then begin
    let oc = open_out !json in
    Printf.fprintf oc
      "{\n\
      \  \"schema\": \"sasos-bench/2\",\n\
      \  \"benchmark\": \"hot_path\",\n\
      \  \"policy\": %S,\n\
      \  \"iters\": %d,\n\
      \  \"accesses_per_iter\": %d,\n\
      \  \"git_rev\": %S,\n\
      \  \"rows\": [\n%s\n\
      \  ],\n\
      \  \"batch_speedup\": %.3f\n\
       }\n"
      (Hw.Replacement.to_string policy)
      !iters accesses_per_iter !rev
      (String.concat ",\n"
         (List.map
            (fun r ->
              Printf.sprintf
                "    { \"bench\": \"hot_path\", \"backend\": \"packed\", \
                 \"engine\": %S, \"accesses_per_sec\": %.0f, \
                 \"alloc_words_per_access\": %.5f }"
                r.engine r.rate r.alloc)
            rows))
      batch_speedup;
    close_out oc;
    Printf.printf "wrote %s\n" !json
  end;
  if batch_speedup < !min_batch_speedup then begin
    Printf.printf "FAIL: batch/scalar speedup %.2fx below required %.2fx\n"
      batch_speedup !min_batch_speedup;
    exit 1
  end
