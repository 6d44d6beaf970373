(* Reference model for the data cache: the record-per-line
   implementation [Data_cache] replaced, kept only so the lockstep
   property in test_data_cache.ml can drive both with the same operations
   and compare every answer and statistic. Not linked into the library. *)

open Sasos.Hw
module Sasos_util = Sasos.Util

type org = Vivt | Vipt | Pipt

let org_to_string = function
  | Vivt -> "vivt"
  | Vipt -> "vipt"
  | Pipt -> "pipt"

type line = {
  mutable valid : bool;
  mutable space : int;
  mutable tag : int; (* tag-source address lsr line_shift *)
  mutable va_line : int; (* virtual line address, for range flushes *)
  mutable pa_line : int; (* physical line address, for writeback/synonyms *)
  mutable dirty : bool;
  mutable stamp : int;
}

type t = {
  organization : org;
  line_shift : int;
  nsets : int;
  ways : int;
  policy : Replacement.t;
  rng : Sasos_util.Prng.t;
  table : line array array;
  (* residency count per physical line, for synonym detection; flat so
     the per-miss incr/decr never allocates (a Hashtbl conses a bucket
     and an option on every miss) *)
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

let fresh_line () =
  { valid = false; space = 0; tag = 0; va_line = 0; pa_line = 0; dirty = false; stamp = 0 }

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
    table = Array.init (nlines / ways) (fun _ -> Array.init ways (fun _ -> fresh_line ()));
    pa_resident = Sasos_util.Flat_tab.create ~size_hint:(2 * nlines) ();
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

let evict_line t l =
  if l.valid then begin
    pa_decr t l.pa_line;
    if l.dirty then begin
      t.writebacks <- t.writebacks + 1;
      l.dirty <- false
    end;
    l.valid <- false;
    t.live <- t.live - 1;
    Probe.note_purged t.probe t.probe_as 1
  end

type result = Hit | Miss of { writeback : bool }

(* Monomorphized index-returning scans for the allocation-free access
   path (the historical Array.iter + option refs allocated on every
   probe, hits included). *)
let rec scan_hit (row : line array) tag space i =
  if i >= Array.length row then -1
  else
    let l = Array.unsafe_get row i in
    if l.valid && l.tag = tag && l.space = space then i
    else scan_hit row tag space (i + 1)

let rec scan_invalid (row : line array) i =
  if i >= Array.length row then -1
  else if not (Array.unsafe_get row i).valid then i
  else scan_invalid row (i + 1)

let rec scan_oldest (row : line array) best i =
  if i >= Array.length row then best
  else
    let best =
      if (Array.unsafe_get row i).stamp < (Array.unsafe_get row best).stamp
      then i
      else best
    in
    scan_oldest row best (i + 1)

(* Zero-allocation access: 0 = hit, 1 = miss, 3 = miss with a dirty
   victim written back.  Decision and accounting are identical to
   {!access} (which is a thin wrapper). *)
let access_bits t ~space ~va ~pa ~write =
  let va_line = va lsr t.line_shift in
  let pa_line = pa lsr t.line_shift in
  let index_addr = match t.organization with Pipt -> pa | Vivt | Vipt -> va in
  let tag_addr = match t.organization with Vivt -> va | Vipt | Pipt -> pa in
  let tag = tag_addr lsr t.line_shift in
  (* physically tagged lines need no homonym space tag *)
  let space = match t.organization with Vivt -> space | Vipt | Pipt -> 0 in
  let set = (index_addr lsr t.line_shift) land (t.nsets - 1) in
  let row = t.table.(set) in
  let hit = scan_hit row tag space 0 in
  if hit >= 0 then begin
    let l = row.(hit) in
    t.hits <- t.hits + 1;
    if write then l.dirty <- true;
    if t.policy = Replacement.Lru then l.stamp <- next_tick t;
    0
  end
  else begin
    t.misses <- t.misses + 1;
    (* pick victim: first invalid, else policy *)
    let v = scan_invalid row 0 in
    let v =
      if v >= 0 then v
      else begin
        match t.policy with
        | Replacement.Random -> Sasos_util.Prng.int t.rng t.ways
        | Replacement.Lru | Replacement.Fifo -> scan_oldest row 0 1
      end
    in
    let l = row.(v) in
    let writeback = l.valid && l.dirty in
    evict_line t l;
    l.valid <- true;
    l.space <- space;
    l.tag <- tag;
    l.va_line <- va_line;
    l.pa_line <- pa_line;
    l.dirty <- write;
    l.stamp <- next_tick t;
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

let sweep t p =
  let flushed = ref 0 and wb = ref 0 in
  Array.iter
    (fun row ->
      Array.iter
        (fun l ->
          if l.valid && p l then begin
            incr flushed;
            if l.dirty then incr wb;
            evict_line t l
          end)
        row)
    t.table;
  note_occupancy t;
  (!flushed, !wb)

let flush_va_range t ~space ~lo ~hi =
  let lo_line = lo lsr t.line_shift and hi_line = (hi - 1) lsr t.line_shift in
  sweep t (fun l ->
      l.va_line >= lo_line && l.va_line <= hi_line
      && (t.organization <> Vivt || l.space = space))

(* Closure-free twin of [flush_va_range] for the page-replacement path:
   [sweep]'s predicate closure and counter refs allocate, and evicting a
   victim page happens under the zero-allocation eviction discipline.
   Returns the flushed-line count only (writebacks are already counted by
   [evict_line]). *)
let rec flush_range_in_row t row lo_line hi_line space w acc =
  if w >= Array.length row then acc
  else begin
    let l = Array.unsafe_get row w in
    let acc =
      if
        l.valid && l.va_line >= lo_line && l.va_line <= hi_line
        && (t.organization <> Vivt || l.space = space)
      then begin
        evict_line t l;
        acc + 1
      end
      else acc
    in
    flush_range_in_row t row lo_line hi_line space (w + 1) acc
  end

let rec flush_range_in_sets t lo_line hi_line space s acc =
  if s >= Array.length t.table then acc
  else
    flush_range_in_sets t lo_line hi_line space (s + 1)
      (flush_range_in_row t (Array.unsafe_get t.table s) lo_line hi_line space
         0 acc)

let flush_va_range_count t ~space ~lo ~hi =
  let lo_line = lo lsr t.line_shift and hi_line = (hi - 1) lsr t.line_shift in
  let flushed = flush_range_in_sets t lo_line hi_line space 0 0 in
  note_occupancy t;
  flushed

let flush_pa_page t ~pfn ~page_shift =
  let shift = page_shift - t.line_shift in
  sweep t (fun l -> l.pa_line lsr shift = pfn)

let flush_all t = sweep t (fun _ -> true)

(* Valid lines holding bytes of frame [pfn]: a scan of every line. *)
let frame_lines t ~pfn ~page_shift =
  let shift = page_shift - t.line_shift in
  Array.fold_left
    (fun n set ->
      Array.fold_left
        (fun n l -> if l.valid && l.pa_line lsr shift = pfn then n + 1 else n)
        n set)
    0 t.table

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
