(* Hot-path benchmark for the protection structures.

   Runs a mixed access loop — PLB probe, TLB lookup + used/dirty
   bookkeeping or install, page-group check — on the int-lane caches
   through the public API, one call per structure access. It reports
   accesses/sec (the best of several trials) and enforces the
   zero-allocation guardrail: minor-heap words per access must stay
   under 0.01 (the obs disabled-path threshold), else exit 1.

     hot_path [--iters N] [--json FILE] [--policy lru|fifo|random]
              [--rev REV]

   The JSON row keeps ["backend": "packed"] and ["engine": "scalar"],
   the discriminators the BENCH_0006 trend series are keyed on. All
   three replacement policies are measurable, including Random: victim
   draws come from a per-cache splitmix int state (Prng.Split), so a
   full-row eviction costs one add and two xor-shift-multiplies and
   allocates nothing. *)

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

let sink = ref 0
let trials = 7

(* Minor-heap words per access over a long run, which amortizes the
   handful of one-time words to noise. Gc.minor_words, not quick_stat:
   on OCaml 5.1 quick_stat's minor_words only advances at minor
   collections, so a window shorter than one minor-heap fill would read
   as zero no matter what the code does. *)
let alloc_of f ~accesses =
  let w0 = Gc.minor_words () in
  sink := !sink + f ();
  let w1 = Gc.minor_words () in
  Float.max 0.0 (w1 -. w0 -. 2.0 (* the boxed float from reading w0 *))
  /. float_of_int accesses

let usage =
  "usage: hot_path [--iters N] [--json FILE] [--policy lru|fifo|random]\n\
  \                [--rev REV]"

let () =
  let iters = ref 2_000_000
  and json = ref ""
  and policy = ref Hw.Replacement.Lru
  and rev = ref "unknown" in
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
    | arg :: _ ->
        prerr_endline ("hot_path: unknown argument " ^ arg);
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let policy = !policy and iters = !iters in
  let rig = make_rig ~policy in
  sink := !sink + run_loop rig 50_000 (* warm-up *);
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = Unix.gettimeofday () in
    sink := !sink + run_loop rig iters;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  let rate = float_of_int (iters * accesses_per_iter) /. !best in
  let alloc_iters = 200_000 in
  let alloc =
    alloc_of
      (fun () -> run_loop rig alloc_iters)
      ~accesses:(alloc_iters * accesses_per_iter)
  in
  Printf.printf "== hot path: %d iterations x %d accesses, policy %s ==\n"
    iters accesses_per_iter
    (Hw.Replacement.to_string policy);
  Printf.printf "  scalar %12.0f accesses/sec  %.5f words/access\n" rate alloc;
  (* allocation guardrail: the loop must be free of per-access
     allocation, under every policy (Random included — its victim draw is
     an int-state splitmix step) *)
  if alloc > 0.01 then begin
    Printf.printf
      "FAIL: scalar hot path allocates (%.5f > 0.01 minor words/access)\n"
      alloc;
    exit 1
  end;
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
      \  \"rows\": [\n\
      \    { \"bench\": \"hot_path\", \"backend\": \"packed\", \
       \"engine\": \"scalar\", \"accesses_per_sec\": %.0f, \
       \"alloc_words_per_access\": %.5f }\n\
      \  ]\n\
       }\n"
      (Hw.Replacement.to_string policy)
      iters accesses_per_iter !rev rate alloc;
    close_out oc;
    Printf.printf "wrote %s\n" !json
  end
