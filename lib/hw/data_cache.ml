type org = Vivt | Vipt | Pipt

let org_to_string = function
  | Vivt -> "vivt"
  | Vipt -> "vipt"
  | Pipt -> "pipt"

(* Lines live in one flat int array, [fields] words per line: line
   [set * ways + way] starts at word [(set * ways + way) * fields], so a
   set's ways sit side by side and a probe reads one or two host cache
   lines. Building a cache fills one array, with no allocation per line.
   There is no tag field: the tag is the virtual line on a VIVT cache and
   the physical line otherwise, both of which are stored anyway for range
   flushes and synonym tracking. *)

let fields = 5
let f_state = 0 (* [valid] lor [dirty] bits; 0 = invalid *)
let f_space = 1 (* homonym tag; always 0 on VIPT/PIPT *)
let f_va = 2 (* virtual line address, for range flushes *)
let f_pa = 3 (* physical line address, for writeback/synonyms *)
let f_stamp = 4 (* recency for LRU, fill order for FIFO *)
let valid = 1
let dirty = 2

type t = {
  organization : org;
  line_shift : int;
  nsets : int;
  ways : int;
  policy : Replacement.t;
  rng : Sasos_util.Prng.t;
  lines : int array;
  (* residency count per physical line, for synonym detection; flat so
     the per-miss incr/decr never allocates (a Hashtbl conses a bucket
     and an option on every miss). Only ever probed, so it starts small
     and grows with the physical lines a run actually touches. *)
  pa_resident : Sasos_util.Flat_tab.t;
  probe : Probe.t;
  probe_as : Probe.structure;
  mutable live : int; (* valid lines, for the occupancy gauge *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable synonyms : int;
}

let create ?(policy = Replacement.Lru) ?(seed = 0xcac4e) ?(probe = Probe.null)
    ?(probe_as = Probe.L1_cache) ~org ~size_bytes ~line_bytes ~ways () =
  let open Sasos_util in
  if not (Bits.is_power_of_two size_bytes && Bits.is_power_of_two line_bytes)
  then invalid_arg "Data_cache.create: sizes must be powers of two";
  if size_bytes < line_bytes * ways then
    invalid_arg "Data_cache.create: cache smaller than one set";
  let nlines = size_bytes / line_bytes in
  if nlines mod ways <> 0 then
    invalid_arg "Data_cache.create: lines not divisible by ways";
  {
    organization = org;
    line_shift = Bits.log2 line_bytes;
    nsets = nlines / ways;
    ways;
    policy;
    rng = Prng.create ~seed;
    lines = Array.make (nlines * fields) 0;
    pa_resident = Flat_tab.create ();
    probe;
    probe_as;
    live = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    synonyms = 0;
  }

let org t = t.organization
let lines t = t.nsets * t.ways
let line_bytes t = 1 lsl t.line_shift
let sets t = t.nsets

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let pa_incr t pa_line =
  let c = Sasos_util.Flat_tab.find t.pa_resident ~k1:pa_line ~k2:0 in
  let c = if c < 0 then 0 else c in
  Sasos_util.Flat_tab.replace t.pa_resident ~k1:pa_line ~k2:0 ~v:(c + 1);
  c + 1

(* Decrement keeps zero-count entries instead of removing them: with a
   stable key set the steady-state miss path only updates values in
   place and never rehashes, so evict+refill is allocation-free. *)
let pa_decr t pa_line =
  let c = Sasos_util.Flat_tab.find t.pa_resident ~k1:pa_line ~k2:0 in
  if c > 0 then
    Sasos_util.Flat_tab.replace t.pa_resident ~k1:pa_line ~k2:0 ~v:(c - 1)

let note_occupancy t = Probe.set_occupancy t.probe t.probe_as t.live

(* Invalidate the valid line starting at word [j], writing it back if
   dirty. *)
let evict_line t j =
  let l = t.lines in
  pa_decr t (Array.unsafe_get l (j + f_pa));
  if Array.unsafe_get l (j + f_state) land dirty <> 0 then
    t.writebacks <- t.writebacks + 1;
  Array.unsafe_set l (j + f_state) 0;
  t.live <- t.live - 1;
  Probe.note_purged t.probe t.probe_as 1

type result = Hit | Miss of { writeback : bool }

(* Monomorphized scans over one set's lines, from word [j] to [stop];
   they return the starting word of a line, or [-1]. Allocation-free on
   every probe, hits included. *)
let rec scan_hit (l : int array) tag_field tag space j stop =
  if j >= stop then -1
  else if
    Array.unsafe_get l (j + f_state) <> 0
    && Array.unsafe_get l (j + tag_field) = tag
    && Array.unsafe_get l (j + f_space) = space
  then j
  else scan_hit l tag_field tag space (j + fields) stop

let rec scan_invalid (l : int array) j stop =
  if j >= stop then -1
  else if Array.unsafe_get l (j + f_state) = 0 then j
  else scan_invalid l (j + fields) stop

let rec scan_oldest (l : int array) best j stop =
  if j >= stop then best
  else
    let best =
      if Array.unsafe_get l (j + f_stamp) < Array.unsafe_get l (best + f_stamp)
      then j
      else best
    in
    scan_oldest l best (j + fields) stop

(* Zero-allocation access: 0 = hit, 1 = miss, 3 = miss with a dirty
   victim written back.  Decision and accounting are identical to
   {!access} (which is a thin wrapper). *)
let access_bits t ~space ~va ~pa ~write =
  let va_line = va lsr t.line_shift in
  let pa_line = pa lsr t.line_shift in
  let index_line = match t.organization with Pipt -> pa_line | Vivt | Vipt -> va_line in
  let tag_field = match t.organization with Vivt -> f_va | Vipt | Pipt -> f_pa in
  let tag = match t.organization with Vivt -> va_line | Vipt | Pipt -> pa_line in
  (* physically tagged lines need no homonym space tag *)
  let space = match t.organization with Vivt -> space | Vipt | Pipt -> 0 in
  let l = t.lines in
  let base = (index_line land (t.nsets - 1)) * t.ways * fields in
  let stop = base + (t.ways * fields) in
  let hit = scan_hit l tag_field tag space base stop in
  if hit >= 0 then begin
    t.hits <- t.hits + 1;
    if write then Array.unsafe_set l (hit + f_state) (valid lor dirty);
    if t.policy = Replacement.Lru then
      Array.unsafe_set l (hit + f_stamp) (next_tick t);
    0
  end
  else begin
    t.misses <- t.misses + 1;
    (* pick victim: first invalid, else policy *)
    let v = scan_invalid l base stop in
    let v =
      if v >= 0 then v
      else begin
        match t.policy with
        | Replacement.Random ->
            base + (Sasos_util.Prng.int t.rng t.ways * fields)
        | Replacement.Lru | Replacement.Fifo ->
            scan_oldest l base (base + fields) stop
      end
    in
    let s = Array.unsafe_get l (v + f_state) in
    let writeback = s land dirty <> 0 in
    if s <> 0 then evict_line t v;
    Array.unsafe_set l (v + f_state) (if write then valid lor dirty else valid);
    Array.unsafe_set l (v + f_space) space;
    Array.unsafe_set l (v + f_va) va_line;
    Array.unsafe_set l (v + f_pa) pa_line;
    Array.unsafe_set l (v + f_stamp) (next_tick t);
    t.live <- t.live + 1;
    Probe.note_fill t.probe t.probe_as;
    note_occupancy t;
    if pa_incr t pa_line > 1 then t.synonyms <- t.synonyms + 1;
    if writeback then 3 else 1
  end

let access t ~space ~va ~pa ~write =
  match access_bits t ~space ~va ~pa ~write with
  | 0 -> Hit
  | 1 -> Miss { writeback = false }
  | _ -> Miss { writeback = true }

(* Which valid lines a flush takes, as a constant constructor plus plain
   int operands so every sweep stays closure-free:
   - [Every]: all of them;
   - [Va_lines]: virtual line in [a, b], and space [c] on VIVT;
   - [Pa_page]: physical line [lsr c] equal to [a]. *)
type selector = Every | Va_lines | Pa_page

let selected t sel j a b c =
  match sel with
  | Every -> true
  | Va_lines ->
      let v = Array.unsafe_get t.lines (j + f_va) in
      v >= a && v <= b
      && (t.organization <> Vivt || Array.unsafe_get t.lines (j + f_space) = c)
  | Pa_page -> Array.unsafe_get t.lines (j + f_pa) lsr c = a

(* Evict the selected lines starting at words [j, stop); returns [acc]
   plus their count. *)
let rec flush_lines t sel a b c j stop acc =
  if j >= stop then acc
  else if
    Array.unsafe_get t.lines (j + f_state) <> 0 && selected t sel j a b c
  then begin
    evict_line t j;
    flush_lines t sel a b c (j + fields) stop (acc + 1)
  end
  else flush_lines t sel a b c (j + fields) stop acc

(* The [n] consecutive sets from [set] on, wrapping. *)
let rec flush_sets t sel a b c set n acc =
  if n = 0 then acc
  else
    let base = set * t.ways * fields in
    flush_sets t sel a b c
      ((set + 1) land (t.nsets - 1))
      (n - 1)
      (flush_lines t sel a b c base (base + (t.ways * fields)) acc)

(* Flush the selected lines. When every line the selector can take
   indexes from [first_line] or the [n - 1] lines after it, and [n] is
   below the set count, only those [n] sets are visited; [n = -1] (the
   cache indexes by the other address) or a longer range sweeps every
   line. Returns the flushed-line count; [evict_line] counts the
   writebacks. *)
let flush t sel a b c ~first_line ~n =
  let flushed =
    if n >= 0 && n < t.nsets then
      flush_sets t sel a b c (first_line land (t.nsets - 1)) n 0
    else flush_lines t sel a b c 0 (Array.length t.lines) 0
  in
  note_occupancy t;
  flushed

(* Allocation-free: the page-replacement path evicts a victim page under
   the zero-allocation discipline. *)
let flush_va_range_count t ~space ~lo ~hi =
  let lo_line = lo lsr t.line_shift and hi_line = (hi - 1) lsr t.line_shift in
  let n =
    match t.organization with
    | Pipt -> -1
    | Vivt | Vipt ->
        let d = hi_line - lo_line in
        (* negative for an empty range or on overflow: a sweep then
           finds what there is *)
        if d >= 0 then d + 1 else -1
  in
  flush t Va_lines lo_line hi_line space ~first_line:lo_line ~n

let flush_va_range t ~space ~lo ~hi =
  let wb0 = t.writebacks in
  let flushed = flush_va_range_count t ~space ~lo ~hi in
  (flushed, t.writebacks - wb0)

let flush_pa_page t ~pfn ~page_shift =
  let shift = page_shift - t.line_shift in
  if shift < 0 then
    invalid_arg "Data_cache.flush_pa_page: page smaller than a cache line";
  let n =
    match t.organization with
    | Pipt when shift < Sys.int_size - 1 -> 1 lsl shift
    | Pipt | Vivt | Vipt -> -1
  in
  let wb0 = t.writebacks in
  let flushed = flush t Pa_page pfn 0 shift ~first_line:(pfn lsl shift) ~n in
  (flushed, t.writebacks - wb0)

let flush_all t =
  let wb0 = t.writebacks in
  let flushed = flush t Every 0 0 0 ~first_line:0 ~n:(-1) in
  (flushed, t.writebacks - wb0)

let resident_copies_of_pa t ~pa_line =
  let c = Sasos_util.Flat_tab.find t.pa_resident ~k1:pa_line ~k2:0 in
  if c < 0 then 0 else c

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let synonyms_detected t = t.synonyms

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0;
  t.synonyms <- 0
