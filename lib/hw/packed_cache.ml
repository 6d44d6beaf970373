let absent = -1

(* Free slots carry [free_key] in their keys1 lane instead of a separate
   validity byte array: one fewer load per way on every scan. [free_key]
   is [min_int], which no caller can store ([insert] rejects negative
   k1), so a free slot can never alias a live key. *)
let free_key = min_int

(* Sets of at most this many ways are walked; wider sets probe the slot
   index. Fixed by the ways sweep in EXPERIMENTS.md "Wide sets probe an
   index". *)
let walk_max_ways = 8

type t = {
  p_policy : Replacement.t;
  (* splitmix int state for Random victim draws; steps in lockstep with
     the reference model's (test/assoc_cache.ml), so both evict the same
     ways *)
  mutable p_rand : int;
  p_sets : int;
  p_ways : int;
  keys1 : int array; (* flattened [set * ways + way]; [free_key] = empty *)
  keys2 : int array;
  vals : int array;
  stamps : int array; (* recency for LRU, insertion order for FIFO *)
  (* Slot index, present when [p_ways > walk_max_ways]: an open-addressing
     table from (set, k1, k2) to the slot holding them, [-1] = empty. Its
     2^k positions are at least twice the slots, so a probe always meets
     an empty position. Narrow caches carry empty arrays. *)
  wide : bool;
  ix : int array;
  homes : int array; (* per live slot: its home position in [ix] *)
  ix_mask : int; (* 2^k - 1 *)
  ix_shift : int; (* 63 - k: a mixed key's top k bits are its home *)
  mutable p_tick : int;
  mutable p_hits : int;
  mutable p_misses : int;
  mutable p_evictions : int;
  mutable p_length : int;
  mutable ev_k1 : int;
  mutable ev_k2 : int;
  mutable ev_v : int;
  mutable ev_some : bool;
}

let create ?(policy = Replacement.Lru) ?(seed = 0x5a505) ~sets ~ways () =
  if sets < 1 || ways < 1 then
    invalid_arg "Packed_cache.create: sets and ways must be >= 1";
  let n = sets * ways in
  let wide = ways > walk_max_ways in
  let k = if wide then Sasos_util.Bits.ceil_log2 (2 * n) else 0 in
  {
    p_policy = policy;
    p_rand = Sasos_util.Prng.Split.init seed;
    p_sets = sets;
    p_ways = ways;
    keys1 = Array.make n free_key;
    keys2 = Array.make n 0;
    vals = Array.make n 0;
    stamps = Array.make n 0;
    wide;
    ix = (if wide then Array.make (1 lsl k) (-1) else [||]);
    homes = (if wide then Array.make n 0 else [||]);
    ix_mask = (1 lsl k) - 1;
    ix_shift = 63 - k;
    p_tick = 0;
    p_hits = 0;
    p_misses = 0;
    p_evictions = 0;
    p_length = 0;
    ev_k1 = 0;
    ev_k2 = 0;
    ev_v = 0;
    ev_some = false;
  }

let sets p = p.p_sets
let ways p = p.p_ways
let capacity p = p.p_sets * p.p_ways
let length p = p.p_length

(* The reference model's set index: mix, then mask the sign bit — [abs]
   would map a mixed hash of [min_int] to a negative set index. *)
let set_of_hash sets h =
  let h = h lxor (h lsr 16) in
  (h land max_int) mod sets

(* The scans below are top-level tail-recursive functions, not local
   closures or ref cells: without flambda a `let rec` capturing its
   environment allocates a closure block and a `ref` allocates a mutable
   cell, either of which would break the zero-allocation fast path. *)

(* unsafe accesses: [j < limit <= sets * ways] by construction.
   The [int array] annotations matter: left generic, these helpers are
   compiled polymorphically — every key comparison becomes a
   [caml_equal] C call and every load a generic (float-tag-checked)
   array access, an order of magnitude slower. *)
(* branchless key compare: one fused test per way instead of a validity
   check plus two equality branches (free slots fail on keys1 = free_key) *)
let rec scan_match (keys1 : int array) (keys2 : int array) (k1 : int)
    (k2 : int) j limit =
  if j >= limit then -1
  else if
    Array.unsafe_get keys1 j lxor k1 lor (Array.unsafe_get keys2 j lxor k2)
    = 0
  then j
  else scan_match keys1 keys2 k1 k2 (j + 1) limit

let rec scan_free (keys1 : int array) j limit =
  if j >= limit then -1
  else if Array.unsafe_get keys1 j = free_key then j
  else scan_free keys1 (j + 1) limit

(* ascending scan with strict <, so the first minimal stamp wins — the
   reference model's victim tie-break *)
let rec scan_min_stamp (stamps : int array) j limit best best_stamp =
  if j >= limit then best
  else
    let s = stamps.(j) in
    if s < best_stamp then scan_min_stamp stamps (j + 1) limit j s
    else scan_min_stamp stamps (j + 1) limit best best_stamp

(* The slot index. A key's home is the top bits of a multiplicative mix
   of (set, k1, k2); collisions probe linearly. Keying by the set as well
   makes a probe return the slot the set walk would, whatever hash the
   caller supplies. *)

let[@inline] ix_home shift set k1 k2 =
  (((k1 * 0x2545f4914f6cdd1d) lxor (k2 * 0x1b873593) lxor set)
   * 0x3c6ef372fe94f82b)
  lsr shift

(* Position holding the slot of (k1, k2) within slots [base, limit), or
   [-1 - e] for the empty position [e] that ends the probe. Unsafe
   accesses: positions are masked and stored slots are live. *)
let rec ix_probe (ix : int array) (keys1 : int array) (keys2 : int array)
    mask k1 k2 base limit pos =
  let s = Array.unsafe_get ix pos in
  if s < 0 then -1 - pos
  else if
    Array.unsafe_get keys1 s lxor k1 lor (Array.unsafe_get keys2 s lxor k2)
    = 0
    && s >= base && s < limit
  then pos
  else ix_probe ix keys1 keys2 mask k1 k2 base limit ((pos + 1) land mask)

let rec ix_position (ix : int array) mask j pos =
  if Array.unsafe_get ix pos = j then pos
  else ix_position ix mask j ((pos + 1) land mask)

(* Backward-shift deletion: [hole] has been vacated. Each later entry of
   the probe run moves back into it unless its home lies cyclically in
   (hole, pos], where a probe for it would still start past the hole. *)
let rec ix_close (ix : int array) (homes : int array) mask hole pos =
  let pos = (pos + 1) land mask in
  let s = Array.unsafe_get ix pos in
  if s < 0 then Array.unsafe_set ix hole (-1)
  else if (pos - Array.unsafe_get homes s) land mask >= (pos - hole) land mask
  then begin
    Array.unsafe_set ix hole s;
    ix_close ix homes mask pos pos
  end
  else ix_close ix homes mask hole pos

(* Take slot [j], entered from [home], out of the index. *)
let ix_drop p j home =
  let pos = ix_position p.ix p.ix_mask j home in
  ix_close p.ix p.homes p.ix_mask pos pos

(* The one lookup behind every keyed operation: the slot of (k1, k2) in
   [set], or a negative miss; no statistics, no recency. Wide sets probe
   the index, and a miss there is [-1 - e], [e] the empty position where
   the key would enter; narrow sets walk their ways and miss with -1. *)
let[@inline] slot_in p set k1 k2 =
  let base = set * p.p_ways in
  if p.wide then
    let pos =
      ix_probe p.ix p.keys1 p.keys2 p.ix_mask k1 k2 base (base + p.p_ways)
        (ix_home p.ix_shift set k1 k2)
    in
    if pos < 0 then pos else Array.unsafe_get p.ix pos
  else scan_match p.keys1 p.keys2 k1 k2 base (base + p.p_ways)

let[@inline] slot_of p ~hash ~k1 ~k2 = slot_in p (set_of_hash p.p_sets hash) k1 k2

let[@inline] touch p j =
  (* pattern match, not [=]: polymorphic equality on the variant is a
     runtime call on the hottest path *)
  match p.p_policy with
  | Replacement.Lru ->
      p.p_tick <- p.p_tick + 1;
      p.stamps.(j) <- p.p_tick
  | Replacement.Fifo | Replacement.Random -> ()

let find p ~hash ~k1 ~k2 =
  let j = slot_of p ~hash ~k1 ~k2 in
  if j >= 0 then begin
    p.p_hits <- p.p_hits + 1;
    touch p j;
    Array.unsafe_get p.vals j
  end
  else begin
    p.p_misses <- p.p_misses + 1;
    absent
  end

let peek p ~hash ~k1 ~k2 =
  let j = slot_of p ~hash ~k1 ~k2 in
  if j >= 0 then Array.unsafe_get p.vals j else absent

let mem p ~hash ~k1 ~k2 = slot_of p ~hash ~k1 ~k2 >= 0

let victim p base =
  (* precondition: the row is full, so every slot is valid *)
  match p.p_policy with
  | Replacement.Random ->
      p.p_rand <- Sasos_util.Prng.Split.next p.p_rand;
      base + Sasos_util.Prng.Split.draw p.p_rand ~bound:p.p_ways
  | Replacement.Lru | Replacement.Fifo ->
      scan_min_stamp p.stamps base (base + p.p_ways) base max_int

let insert p ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.insert: payload must be >= 0";
  if k1 < 0 then invalid_arg "Packed_cache.insert: key1 must be >= 0";
  let set = set_of_hash p.p_sets hash in
  let j = slot_in p set k1 k2 in
  if j >= 0 then begin
    p.vals.(j) <- v;
    (* re-installing is a touch under LRU; FIFO keeps insertion order *)
    touch p j;
    p.ev_some <- false
  end
  else begin
    let base = set * p.p_ways in
    (* a full cache has no free way in any set *)
    let free =
      if p.p_length = capacity p then -1
      else scan_free p.keys1 base (base + p.p_ways)
    in
    (* the fresh stamp is drawn before the victim choice, matching the
       reference model's tick ordering exactly *)
    p.p_tick <- p.p_tick + 1;
    let stamp = p.p_tick in
    let vacancy = -1 - j in
    let j =
      if free >= 0 then begin
        p.p_length <- p.p_length + 1;
        p.ev_some <- false;
        free
      end
      else begin
        let j = victim p base in
        p.ev_k1 <- p.keys1.(j);
        p.ev_k2 <- p.keys2.(j);
        p.ev_v <- p.vals.(j);
        p.ev_some <- true;
        p.p_evictions <- p.p_evictions + 1;
        j
      end
    in
    p.keys1.(j) <- k1;
    p.keys2.(j) <- k2;
    p.vals.(j) <- v;
    p.stamps.(j) <- stamp;
    if p.wide then begin
      (* Enter the new key where its probe stopped, then drop the victim.
         The table has room for both, and the new entry cannot lie
         between the victim's home and position (every position there
         was full), so [ix_drop] finds the victim's entry. *)
      let victim_home = p.homes.(j) in
      p.ix.(vacancy) <- j;
      p.homes.(j) <- ix_home p.ix_shift set k1 k2;
      if free < 0 then ix_drop p j victim_home
    end
  end

let last_eviction p = if p.ev_some then Some (p.ev_k1, p.ev_k2, p.ev_v) else None

let set_masked p ~hash ~k1 ~k2 ~mask ~bits =
  let j = slot_of p ~hash ~k1 ~k2 in
  if j >= 0 then begin
    p.vals.(j) <- (p.vals.(j) land lnot mask) lor bits;
    true
  end
  else false

let set p ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.set: payload must be >= 0";
  set_masked p ~hash ~k1 ~k2 ~mask:(-1) ~bits:v

(* Free the live slot [j]. *)
let vacate p j =
  if p.wide then ix_drop p j p.homes.(j);
  p.keys1.(j) <- free_key;
  p.p_length <- p.p_length - 1

let remove p ~hash ~k1 ~k2 =
  let j = slot_of p ~hash ~k1 ~k2 in
  if j >= 0 then begin
    vacate p j;
    true
  end
  else false

let purge p pred =
  let inspected = ref 0 and removed = ref 0 in
  for j = 0 to capacity p - 1 do
    if p.keys1.(j) <> free_key then begin
      incr inspected;
      if pred p.keys1.(j) p.keys2.(j) p.vals.(j) then begin
        vacate p j;
        incr removed
      end
    end
  done;
  (!inspected, !removed)

let rewrite p f =
  let changed = ref 0 in
  for j = 0 to capacity p - 1 do
    if p.keys1.(j) <> free_key then begin
      let v = p.vals.(j) in
      let v' = f p.keys1.(j) p.keys2.(j) v in
      if v' <> v then begin
        if v' < 0 then invalid_arg "Packed_cache.rewrite: payload must be >= 0";
        p.vals.(j) <- v';
        incr changed
      end
    end
  done;
  !changed

let clear p =
  let dropped = p.p_length in
  (* an empty cache has every slot free and an empty index already *)
  if dropped > 0 then begin
    Array.fill p.keys1 0 (Array.length p.keys1) free_key;
    if p.wide then Array.fill p.ix 0 (Array.length p.ix) (-1);
    p.p_length <- 0
  end;
  dropped

let iter f p =
  for j = 0 to capacity p - 1 do
    if p.keys1.(j) <> free_key then f p.keys1.(j) p.keys2.(j) p.vals.(j)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k1 k2 v -> acc := f k1 k2 v !acc) t;
  !acc

let well_formed p =
  (not p.wide)
  ||
  let n = capacity p in
  let entered = Array.make n 0 in
  Array.iter (fun s -> if s >= 0 && s < n then entered.(s) <- entered.(s) + 1) p.ix;
  (* every position from [pos] up to [stop] is occupied *)
  let rec run_full pos stop =
    pos = stop || (p.ix.(pos) >= 0 && run_full ((pos + 1) land p.ix_mask) stop)
  in
  let entry_ok pos s =
    s < 0
    || s < n
       && p.keys1.(s) <> free_key
       && p.homes.(s) = ix_home p.ix_shift (s / p.p_ways) p.keys1.(s) p.keys2.(s)
       && run_full p.homes.(s) pos
  in
  let rec entries_ok pos =
    pos > p.ix_mask || (entry_ok pos p.ix.(pos) && entries_ok (pos + 1))
  in
  let rec slots_ok j =
    j = n
    || entered.(j) = (if p.keys1.(j) = free_key then 0 else 1)
       && slots_ok (j + 1)
  in
  entries_ok 0 && slots_ok 0

let hits p = p.p_hits
let misses p = p.p_misses
let evictions p = p.p_evictions

let reset_stats p =
  p.p_hits <- 0;
  p.p_misses <- 0;
  p.p_evictions <- 0
