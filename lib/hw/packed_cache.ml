let absent = -1

(* Free slots carry [free_key] in their keys1 lane instead of a separate
   validity byte array: one fewer load per way on every scan. [free_key]
   is [min_int], which no caller can store ([raw_insert] rejects negative
   k1), so a free slot can never alias a live key. *)
let free_key = min_int

type packed_state = {
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

type t = packed_state

let create ?(policy = Replacement.Lru) ?(seed = 0x5a505) ~sets ~ways () =
  if sets < 1 || ways < 1 then
    invalid_arg "Packed_cache.create: sets and ways must be >= 1";
  let n = sets * ways in
  {
    p_policy = policy;
    p_rand = Sasos_util.Prng.Split.init seed;
    p_sets = sets;
    p_ways = ways;
    keys1 = Array.make n free_key;
    keys2 = Array.make n 0;
    vals = Array.make n 0;
    stamps = Array.make n 0;
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

(* --- raw packed-state operations ---------------------------------------

   The batch engine's kernel (lib/engine/kernel.ml) precomputes set bases
   at compile time and drives the packed lanes directly, skipping the
   per-access hash + division. To keep its semantics identical to the
   scalar API *by construction*, the raw operations below are the single
   implementation: the public [find]/[peek]/[insert]/[set_masked] call
   them with [base = raw_base p ~hash], and the kernel calls them with its
   precomputed base. Anything one path counts, the other
   counts. *)

let raw_base p ~hash = set_of_hash p.p_sets hash * p.p_ways

(* the bare scan: slot index of (k1, k2) in the set at [base], -1 when
   absent; no statistics, no recency. The kernel composes its inlined
   fast paths from this plus explicit bookkeeping. *)
let raw_index p ~base ~k1 ~k2 =
  scan_match p.keys1 p.keys2 k1 k2 base (base + p.p_ways)

let raw_find p ~base ~k1 ~k2 =
  let j = scan_match p.keys1 p.keys2 k1 k2 base (base + p.p_ways) in
  if j >= 0 then begin
    p.p_hits <- p.p_hits + 1;
    (* pattern match, not [=]: polymorphic equality on the variant is
       a runtime call on the hottest path *)
    (match p.p_policy with
    | Replacement.Lru ->
        p.p_tick <- p.p_tick + 1;
        p.stamps.(j) <- p.p_tick
    | Replacement.Fifo | Replacement.Random -> ());
    Array.unsafe_get p.vals j
  end
  else begin
    p.p_misses <- p.p_misses + 1;
    absent
  end

let raw_peek p ~base ~k1 ~k2 =
  let j = scan_match p.keys1 p.keys2 k1 k2 base (base + p.p_ways) in
  if j >= 0 then Array.unsafe_get p.vals j else absent

(* [raw_find] immediately followed by [raw_set_masked ~mask:bits ~bits] on
   the same key, fused into one scan: on a hit the payload gains [bits]
   in place ([(v land lnot bits) lor bits = v lor bits]) and the
   pre-update payload is returned; on a miss set_masked would be a no-op
   returning false, so only the miss is counted. The TLB's
   lookup-then-mark access path compiles to this. *)
let raw_find_mark p ~base ~k1 ~k2 ~bits =
  let j = scan_match p.keys1 p.keys2 k1 k2 base (base + p.p_ways) in
  if j >= 0 then begin
    p.p_hits <- p.p_hits + 1;
    (match p.p_policy with
    | Replacement.Lru ->
        p.p_tick <- p.p_tick + 1;
        p.stamps.(j) <- p.p_tick
    | Replacement.Fifo | Replacement.Random -> ());
    let v = Array.unsafe_get p.vals j in
    Array.unsafe_set p.vals j (v lor bits);
    v
  end
  else begin
    p.p_misses <- p.p_misses + 1;
    absent
  end

let raw_victim p base =
  (* precondition: the row is full, so every slot is valid *)
  match p.p_policy with
  | Replacement.Random ->
      p.p_rand <- Sasos_util.Prng.Split.next p.p_rand;
      base + Sasos_util.Prng.Split.draw p.p_rand ~bound:p.p_ways
  | Replacement.Lru | Replacement.Fifo ->
      scan_min_stamp p.stamps base (base + p.p_ways) base max_int

(* insert of a key known to be absent from its set (a refill after a
   counted miss): the re-scan [raw_insert] would run is skipped. The
   kernel's TLB miss path calls this directly; [raw_insert] routes its
   not-found case here so there is one implementation of placement,
   victim choice and eviction bookkeeping. *)
let raw_refill p ~base ~k1 ~k2 v =
  if k1 < 0 then invalid_arg "Packed_cache.insert: key1 must be >= 0";
  let free = scan_free p.keys1 base (base + p.p_ways) in
  (* the fresh stamp is drawn before the victim choice, matching the
     reference model's tick ordering exactly *)
  p.p_tick <- p.p_tick + 1;
  let stamp = p.p_tick in
  let j =
    if free >= 0 then begin
      p.p_length <- p.p_length + 1;
      p.ev_some <- false;
      free
    end
    else begin
      let j = raw_victim p base in
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
  p.stamps.(j) <- stamp

let raw_insert p ~base ~k1 ~k2 v =
  if k1 < 0 then invalid_arg "Packed_cache.insert: key1 must be >= 0";
  let j = scan_match p.keys1 p.keys2 k1 k2 base (base + p.p_ways) in
  if j >= 0 then begin
    p.vals.(j) <- v;
    (* re-installing is a touch under LRU; FIFO keeps insertion order *)
    (match p.p_policy with
    | Replacement.Lru ->
        p.p_tick <- p.p_tick + 1;
        p.stamps.(j) <- p.p_tick
    | Replacement.Fifo | Replacement.Random -> ());
    p.ev_some <- false
  end
  else raw_refill p ~base ~k1 ~k2 v

let raw_set_masked p ~base ~k1 ~k2 ~mask ~bits =
  let j = scan_match p.keys1 p.keys2 k1 k2 base (base + p.p_ways) in
  if j >= 0 then begin
    p.vals.(j) <- (p.vals.(j) land lnot mask) lor bits;
    true
  end
  else false

let packed_state p = p

(* ----------------------------------------------------------------------- *)

let find p ~hash ~k1 ~k2 = raw_find p ~base:(raw_base p ~hash) ~k1 ~k2
let peek p ~hash ~k1 ~k2 = raw_peek p ~base:(raw_base p ~hash) ~k1 ~k2
let mem p ~hash ~k1 ~k2 = peek p ~hash ~k1 ~k2 >= 0

let insert p ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.insert: payload must be >= 0";
  raw_insert p ~base:(raw_base p ~hash) ~k1 ~k2 v

let last_eviction p = if p.ev_some then Some (p.ev_k1, p.ev_k2, p.ev_v) else None

let set_masked p ~hash ~k1 ~k2 ~mask ~bits =
  raw_set_masked p ~base:(raw_base p ~hash) ~k1 ~k2 ~mask ~bits

let set p ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.set: payload must be >= 0";
  set_masked p ~hash ~k1 ~k2 ~mask:(-1) ~bits:v

let remove p ~hash ~k1 ~k2 =
  let j = raw_index p ~base:(raw_base p ~hash) ~k1 ~k2 in
  if j >= 0 then begin
    p.keys1.(j) <- free_key;
    p.p_length <- p.p_length - 1;
    true
  end
  else false

let purge p pred =
  let inspected = ref 0 and removed = ref 0 in
  for j = 0 to capacity p - 1 do
    if p.keys1.(j) <> free_key then begin
      incr inspected;
      if pred p.keys1.(j) p.keys2.(j) p.vals.(j) then begin
        p.keys1.(j) <- free_key;
        p.p_length <- p.p_length - 1;
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
  Array.fill p.keys1 0 (Array.length p.keys1) free_key;
  p.p_length <- 0;
  dropped

let iter f p =
  for j = 0 to capacity p - 1 do
    if p.keys1.(j) <> free_key then f p.keys1.(j) p.keys2.(j) p.vals.(j)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k1 k2 v -> acc := f k1 k2 v !acc) t;
  !acc

let hits p = p.p_hits
let misses p = p.p_misses
let evictions p = p.p_evictions

let reset_stats p =
  p.p_hits <- 0;
  p.p_misses <- 0;
  p.p_evictions <- 0
