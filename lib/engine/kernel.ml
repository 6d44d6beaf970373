open Sasos_addr
open Sasos_hw

(* The hardware-level batch kernel: compiles a stream of protection-check
   ops against a concrete PLB/TLB/page-group rig into flat int lanes, with
   every per-access hash and [mod sets] division precomputed, then decodes
   in a tight tail-recursive loop over the packed lanes.

   Slots are variable-length; word 0 holds the tag in bits 0-2 and a skip
   flag (AID-0 page-group ops, free in hardware) in bit 3:

     tag  op          len  lanes
      0   plb-find     4   base pn k2
      1   plb-install  5   base pn k2 rights
      2   tlb-access   6   base space vpn mark refill-entry
      3   pg-check     3   base aid            (k2 is always 0)
      4   pg-load      4   base aid payload
      5   access      12   plb base pn k2; tlb base space vpn mark entry;
                           way-prediction lanes (plb tlb pg)
      6   access-lru  12   same lanes; policies all LRU, page groups 8-way

   The access superop carries no page-group lanes at all: the aid rides
   in the tag word from bit 4 up (26 bits, above the skip flag), and the
   page-group cache is single-set by construction so its set base is the
   constant 0 — two fewer code-stream loads on the hottest slot, and
   fusion requires it (compile checks).

   Tags 5 and 6 are the trace-compiler's superop: the paper's per-access
   protection path — PLB probe, TLB lookup/mark-or-refill, page-group
   check — fused into one straight-line decode arm with both 4-way scans
   unrolled. The compiler emits it whenever the three ops appear
   back-to-back and the PLB and TLB are 4-way (the Table 1 geometry);
   everything else lowers to the generic single-op tags. Replacement
   policies are per-structure constants, so the choice between the
   generic arm (5) and the all-LRU specialization (6, unconditional
   stamp refresh, no per-hit policy dispatch) is made once at compile
   time rather than three times per decoded access.

   Statistics are deferred: each structure's hit/miss counts accumulate
   in a register-carried word (hits in bits 31+, misses below) and flush
   into the packed_state counters when the loop ends or when an insert
   needs the LRU tick. The observable counters, stamps, victim draws and
   eviction bookkeeping are identical to the scalar API's per-op updates
   — raw_refill/raw_insert are shared with the public path, LRU stamps
   are reconstructed as [p_tick + pending hits] — and a QCheck lockstep
   property (test/test_engine.ml) plus the bench's own differential gate
   (bench/hot_path.ml) pin the equivalence. *)

type op =
  | Plb_find of { pd : int; va : int; shift : int }
  | Plb_install of { pd : int; va : int; shift : int; rights : Rights.t }
  | Tlb_access of {
      space : int;
      vpn : int;
      write : bool;
      refill_pfn : int;
      refill_aid : int;
      refill_rights : Rights.t;
    }
  | Pg_check of { aid : int }
  | Pg_load of { aid : int; write_disabled : bool }

let tag_plb_find = 0
let tag_plb_install = 1
let tag_tlb_access = 2
let tag_pg_check = 3
let tag_pg_load = 4
let tag_access = 5
let tag_access_lru = 6
let skip_flag = 8

(* Way-prediction lanes for the access superop: words 9-11 of a tag-5/6
   slot hold the flattened key index of each structure's last hit (PLB,
   TLB, page group), seeded to way 0 of the slot's set. The tag-6 chain
   probes the predicted index with one key compare and only falls back
   to the full scan cascade on mispredict, rewriting the lane with a
   plain store. Hints are pure accelerators: a predicted hit names the
   same resident way the scan would find (keys are unique within a
   set), so statistics, stamps and results are bit-identical with or
   without them. *)
let hint_plb_lane = 9
let hint_tlb_lane = 10
let hint_pg_lane = 11

type program = {
  k_plb : Packed_cache.packed_state;
  k_tlb : Packed_cache.packed_state;
  k_pg : Packed_cache.packed_state;
  k_code : int array;
  (* slot offsets, one per decoded op plus a final sentinel at the code
     length — slots are variable-length, so [step] needs the map *)
  k_index : int array;
}

let length prog = Array.length prog.k_index - 1

(* lane-width audit: 26-bit AIDs and 31-bit PFNs are the Tlb entry layout;
   PDs carry up to 31 bits (Okamoto context tags). Rejecting here — with
   the op index — beats silently truncating inside a packed entry. *)
let lane_check i what bits v =
  if v < 0 || v >= 1 lsl bits then
    invalid_arg
      (Printf.sprintf
         "Kernel.compile: op %d: %s %d does not fit the %d-bit lane" i what v
         bits)

let nonneg i what v =
  if v < 0 then
    invalid_arg
      (Printf.sprintf "Kernel.compile: op %d: %s %d is negative" i what v)

let compile ?(fuse = true) ~plb ~tlb ~pgc ops =
  let k_plb = Packed_cache.packed_state (Plb.raw_cache plb) in
  let k_tlb = Packed_cache.packed_state (Tlb.raw_cache tlb) in
  let k_pg = Packed_cache.packed_state (Page_group_cache.raw_cache pgc) in
  let plb_shifts = Plb.shifts plb in
  let plb_lane i ~pd ~va ~shift =
    lane_check i "pd" 31 pd;
    nonneg i "va" va;
    if not (List.mem shift plb_shifts) then
      invalid_arg
        (Printf.sprintf "Kernel.compile: op %d: unconfigured plb shift %d" i
           shift);
    let pn = va lsr shift in
    let k2 = Plb.pack_k2 ~pd ~shift in
    let base =
      Packed_cache.raw_base k_plb ~hash:(Plb.hash_of ~pd ~shift ~pn)
    in
    (base, pn, k2)
  in
  let plb_find_lane i ~pd ~va ~shift =
    (* a single-probe find only equals the scalar lookup when the PLB has
       one grain: with several shifts the scalar path peeks every grain
       before the counted probe *)
    if List.length plb_shifts <> 1 then
      invalid_arg
        (Printf.sprintf
           "Kernel.compile: op %d: multi-grain PLB cannot be batch-compiled"
           i);
    plb_lane i ~pd ~va ~shift
  in
  let tlb_lanes i ~space ~vpn ~write ~refill_pfn ~refill_aid ~refill_rights =
    nonneg i "space" space;
    nonneg i "vpn" vpn;
    lane_check i "aid" 26 refill_aid;
    lane_check i "pfn" 31 refill_pfn;
    let base = Packed_cache.raw_base k_tlb ~hash:(Tlb.hash_of ~space ~vpn) in
    let mark = Tlb.referenced_bit lor (if write then Tlb.dirty_bit else 0) in
    let entry =
      Tlb.pack ~pfn:refill_pfn ~rights:refill_rights ~aid:refill_aid
        ~dirty:false ~referenced:false
    in
    (base, mark, entry)
  in
  let pg_base i aid =
    lane_check i "aid" 26 aid;
    Packed_cache.raw_base k_pg ~hash:(Page_group_cache.hash_of aid)
  in
  let a = Array.of_list ops in
  let n = Array.length a in
  (* upper bound: a generic slot is at most 6 words, a superop 12 words
     per 3 source ops *)
  let code = Array.make ((n * 6) + 1) 0 in
  let index = Array.make (n + 1) 0 in
  let pos = ref 0 and slots = ref 0 in
  let emit1 v =
    code.(!pos) <- v;
    incr pos
  in
  let open_slot () =
    index.(!slots) <- !pos;
    incr slots
  in
  let fuse_ok =
    fuse && k_plb.p_ways = 4 && k_tlb.p_ways = 4 && k_pg.p_sets = 1
  in
  (* tag 6 also bakes in the 8-way page-group scan; any other geometry
     takes the generic arm *)
  let acc_tag =
    if
      k_plb.p_policy = Replacement.Lru
      && k_tlb.p_policy = Replacement.Lru
      && k_pg.p_policy = Replacement.Lru
      && k_pg.p_ways = 8
    then tag_access_lru
    else tag_access
  in
  let i = ref 0 in
  while !i < n do
    let src = !i in
    (match a.(src) with
    | Plb_find { pd; va; shift }
      when fuse_ok && src + 2 < n
           && (match a.(src + 1) with Tlb_access _ -> true | _ -> false)
           && match a.(src + 2) with Pg_check _ -> true | _ -> false -> begin
        match (a.(src + 1), a.(src + 2)) with
        | ( Tlb_access
              { space; vpn; write; refill_pfn; refill_aid; refill_rights },
            Pg_check { aid } ) ->
            let pbase, pn, pk2 = plb_find_lane src ~pd ~va ~shift in
            let tbase, mark, entry =
              tlb_lanes (src + 1) ~space ~vpn ~write ~refill_pfn ~refill_aid
                ~refill_rights
            in
            let gbase = pg_base (src + 2) aid in
            assert (gbase = 0) (* single-set, checked by fuse_ok *);
            open_slot ();
            emit1
              (acc_tag
              lor (if aid = 0 then skip_flag else 0)
              lor (aid lsl 4));
            emit1 pbase;
            emit1 pn;
            emit1 pk2;
            emit1 tbase;
            emit1 space;
            emit1 vpn;
            emit1 mark;
            emit1 entry;
            (* way-prediction lanes: flattened index of each structure's
               last hit, seeded to way 0. The tag-6 chain rewrites them in
               place on mispredict; tag 5 carries them unused. *)
            emit1 pbase;
            emit1 tbase;
            emit1 0;
            i := !i + 3
        | _ -> assert false
      end
    | Plb_find { pd; va; shift } ->
        let base, pn, k2 = plb_find_lane src ~pd ~va ~shift in
        open_slot ();
        emit1 tag_plb_find;
        emit1 base;
        emit1 pn;
        emit1 k2;
        incr i
    | Plb_install { pd; va; shift; rights } ->
        let base, pn, k2 = plb_lane src ~pd ~va ~shift in
        open_slot ();
        emit1 tag_plb_install;
        emit1 base;
        emit1 pn;
        emit1 k2;
        emit1 (Rights.to_int rights);
        incr i
    | Tlb_access { space; vpn; write; refill_pfn; refill_aid; refill_rights }
      ->
        let base, mark, entry =
          tlb_lanes src ~space ~vpn ~write ~refill_pfn ~refill_aid
            ~refill_rights
        in
        open_slot ();
        emit1 tag_tlb_access;
        emit1 base;
        emit1 space;
        emit1 vpn;
        emit1 mark;
        emit1 entry;
        incr i
    | Pg_check { aid } ->
        let base = pg_base src aid in
        open_slot ();
        emit1 (tag_pg_check lor (if aid = 0 then skip_flag else 0));
        emit1 base;
        emit1 aid;
        incr i
    | Pg_load { aid; write_disabled } ->
        let base = pg_base src aid in
        open_slot ();
        emit1 (tag_pg_load lor (if aid = 0 then skip_flag else 0));
        emit1 base;
        emit1 aid;
        emit1 (if write_disabled then 1 else 0);
        incr i);
    ()
  done;
  index.(!slots) <- !pos;
  {
    k_plb;
    k_tlb;
    k_pg;
    k_code = Array.sub code 0 !pos;
    k_index = Array.sub index 0 (!slots + 1);
  }

(* --- the decode loop ----------------------------------------------------

   Top-level tail recursion over the flat lanes; all state in parameters,
   no closures, no ref cells — the loop itself allocates nothing.

   [plb_hm]/[tlb_hm]/[pg_hm] carry each structure's deferred statistics:
   hits in bits 31 and up, misses in bits 0-30 (a single run of 2^31 ops
   of one kind would overflow — far beyond any bench). LRU stamps for
   deferred hits are [p_tick + pending hits], the exact value the per-op
   tick would have produced; [flush] folds the counts (and the tick
   advance) into the packed_state before anything else reads them. *)

let hit1 = 1 lsl 31
let miss_mask = hit1 - 1

let flush (p : Packed_cache.packed_state) hm =
  if hm <> 0 then begin
    let h = hm lsr 31 and m = hm land miss_mask in
    p.p_hits <- p.p_hits + h;
    p.p_misses <- p.p_misses + m;
    match p.p_policy with
    | Replacement.Lru -> p.p_tick <- p.p_tick + h
    | Replacement.Fifo | Replacement.Random -> ()
  end

(* page-group scan: live k2 lanes are all 0 there, so only keys1 is
   compared (free slots hold Packed_cache.free_key, which no AID is) *)
let rec scan_k1 (keys1 : int array) (k1 : int) j limit =
  if j >= limit then -1
  else if Array.unsafe_get keys1 j = k1 then j
  else scan_k1 keys1 k1 (j + 1) limit

let rec decode_loop (k_plb : Packed_cache.packed_state)
    (k_tlb : Packed_cache.packed_state) (k_pg : Packed_cache.packed_state)
    (code : int array) i limit acc plb_hm tlb_hm pg_hm =
  if i >= limit then begin
    flush k_plb plb_hm;
    flush k_tlb tlb_hm;
    flush k_pg pg_hm;
    acc
  end
  else
    let w = Array.unsafe_get code i in
    match w land 7 with
    | 0 ->
        (* plb-find: counted probe, rights bits or absent (-1) joins acc *)
        let base = Array.unsafe_get code (i + 1) in
        let k1 = Array.unsafe_get code (i + 2) in
        let k2 = Array.unsafe_get code (i + 3) in
        let j = Packed_cache.raw_index k_plb ~base ~k1 ~k2 in
        if j >= 0 then begin
          let plb_hm = plb_hm + hit1 in
          (match k_plb.p_policy with
          | Replacement.Lru ->
              Array.unsafe_set k_plb.stamps j
                (k_plb.p_tick + (plb_hm lsr 31))
          | Replacement.Fifo | Replacement.Random -> ());
          decode_loop k_plb k_tlb k_pg code (i + 4) limit
            (acc + Array.unsafe_get k_plb.vals j)
            plb_hm tlb_hm pg_hm
        end
        else
          decode_loop k_plb k_tlb k_pg code (i + 4) limit (acc - 1)
            (plb_hm + 1) tlb_hm pg_hm
    | 1 ->
        (* plb-install: inserts read the LRU tick, so settle the deferred
           counts first *)
        flush k_plb plb_hm;
        Packed_cache.raw_insert k_plb ~base:(Array.unsafe_get code (i + 1))
          ~k1:(Array.unsafe_get code (i + 2))
          ~k2:(Array.unsafe_get code (i + 3))
          (Array.unsafe_get code (i + 4));
        decode_loop k_plb k_tlb k_pg code (i + 5) limit acc 0 tlb_hm pg_hm
    | 2 ->
        (* tlb-access: lookup; hit marks used/dirty and accumulates the
           PFN, miss installs the refill entry *)
        let base = Array.unsafe_get code (i + 1) in
        let k1 = Array.unsafe_get code (i + 2) in
        let k2 = Array.unsafe_get code (i + 3) in
        let j = Packed_cache.raw_index k_tlb ~base ~k1 ~k2 in
        if j >= 0 then begin
          let tlb_hm = tlb_hm + hit1 in
          (match k_tlb.p_policy with
          | Replacement.Lru ->
              Array.unsafe_set k_tlb.stamps j
                (k_tlb.p_tick + (tlb_hm lsr 31))
          | Replacement.Fifo | Replacement.Random -> ());
          let v = Array.unsafe_get k_tlb.vals j in
          Array.unsafe_set k_tlb.vals j (v lor Array.unsafe_get code (i + 4));
          decode_loop k_plb k_tlb k_pg code (i + 6) limit
            (acc + (v lsr Tlb.pfn_shift))
            plb_hm tlb_hm pg_hm
        end
        else begin
          flush k_tlb (tlb_hm + 1);
          Packed_cache.raw_refill k_tlb ~base ~k1 ~k2
            (Array.unsafe_get code (i + 5));
          decode_loop k_plb k_tlb k_pg code (i + 6) limit acc plb_hm 0 pg_hm
        end
    | 3 ->
        (* pg-check: -1 / 0 / 1 joins acc; AID 0 is a fixed hardware
           comparison, skipped and uncounted *)
        if w land skip_flag <> 0 then
          decode_loop k_plb k_tlb k_pg code (i + 3) limit acc plb_hm tlb_hm
            pg_hm
        else
          let base = Array.unsafe_get code (i + 1) in
          let k1 = Array.unsafe_get code (i + 2) in
          let j = scan_k1 k_pg.keys1 k1 base (base + k_pg.p_ways) in
          if j >= 0 then begin
            let pg_hm = pg_hm + hit1 in
            (match k_pg.p_policy with
            | Replacement.Lru ->
                Array.unsafe_set k_pg.stamps j (k_pg.p_tick + (pg_hm lsr 31))
            | Replacement.Fifo | Replacement.Random -> ());
            decode_loop k_plb k_tlb k_pg code (i + 3) limit
              (acc + Array.unsafe_get k_pg.vals j)
              plb_hm tlb_hm pg_hm
          end
          else
            decode_loop k_plb k_tlb k_pg code (i + 3) limit (acc - 1) plb_hm
              tlb_hm (pg_hm + 1)
    | 4 ->
        if w land skip_flag <> 0 then
          decode_loop k_plb k_tlb k_pg code (i + 4) limit acc plb_hm tlb_hm
            pg_hm
        else begin
          flush k_pg pg_hm;
          Packed_cache.raw_insert k_pg ~base:(Array.unsafe_get code (i + 1))
            ~k1:(Array.unsafe_get code (i + 2))
            ~k2:0
            (Array.unsafe_get code (i + 3));
          decode_loop k_plb k_tlb k_pg code (i + 4) limit acc plb_hm tlb_hm 0
        end
    | 5 -> superop_chain k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
    | 6 ->
        superop_chain_lru k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
          pg_hm
    | t -> invalid_arg (Printf.sprintf "Kernel.run: bad opcode tag %d" t)

(* The access superop: plb-find + tlb-access + pg-check in one
   straight-line body. Everything on the hit paths is spelled out
   inline — the compiler (no flambda) emits a real call for any
   helper function, and a call per probe costs more than the whole
   probe. Both 4-way scans and the 8-way page-group scan are unrolled
   by hand; only the cold miss paths (flush + raw_refill) and the rare
   non-8-way page-group rig call out. (A fully branchless mask-select
   variant measured slower: the way branches predict well, and the
   masks lengthen the acc dependency chain.)

   This lives outside [decode_loop]'s dispatch on purpose: the
   multi-way match spills every loop parameter around the jump table,
   so consecutive superops — the common shape of an access-dense
   program — would pay ~30 stack moves each just crossing the loop
   head. Instead the body checks the next slot's tag itself and
   self-tail-calls while it keeps seeing tag 5, only falling back to
   [decode_loop] at a non-superop slot or the end of the program. *)
and superop_chain (k_plb : Packed_cache.packed_state)
    (k_tlb : Packed_cache.packed_state) (k_pg : Packed_cache.packed_state)
    (code : int array) i limit acc plb_hm tlb_hm pg_hm =
  let w = Array.unsafe_get code i in
  let pk1 = Array.unsafe_get code (i + 2) in
        let pk2 = Array.unsafe_get code (i + 3) in
        let b = Array.unsafe_get code (i + 1) in
        let keys1 = k_plb.keys1 and keys2 = k_plb.keys2 in
        let j =
          if
            Array.unsafe_get keys1 b = pk1 && Array.unsafe_get keys2 b = pk2
          then b
          else if
            Array.unsafe_get keys1 (b + 1) = pk1
            && Array.unsafe_get keys2 (b + 1) = pk2
          then b + 1
          else if
            Array.unsafe_get keys1 (b + 2) = pk1
            && Array.unsafe_get keys2 (b + 2) = pk2
          then b + 2
          else if
            Array.unsafe_get keys1 (b + 3) = pk1
            && Array.unsafe_get keys2 (b + 3) = pk2
          then b + 3
          else -1
        in
        let plb_hm =
          if j >= 0 then begin
            let hm = plb_hm + hit1 in
            (match k_plb.p_policy with
            | Replacement.Lru ->
                Array.unsafe_set k_plb.stamps j (k_plb.p_tick + (hm lsr 31))
            | Replacement.Fifo | Replacement.Random -> ());
            hm
          end
          else plb_hm + 1
        in
        let acc =
          if j >= 0 then acc + Array.unsafe_get k_plb.vals j else acc - 1
        in
        let tk1 = Array.unsafe_get code (i + 5) in
        let tk2 = Array.unsafe_get code (i + 6) in
        let b = Array.unsafe_get code (i + 4) in
        let keys1 = k_tlb.keys1 and keys2 = k_tlb.keys2 in
        let tj =
          if
            Array.unsafe_get keys1 b = tk1 && Array.unsafe_get keys2 b = tk2
          then b
          else if
            Array.unsafe_get keys1 (b + 1) = tk1
            && Array.unsafe_get keys2 (b + 1) = tk2
          then b + 1
          else if
            Array.unsafe_get keys1 (b + 2) = tk1
            && Array.unsafe_get keys2 (b + 2) = tk2
          then b + 2
          else if
            Array.unsafe_get keys1 (b + 3) = tk1
            && Array.unsafe_get keys2 (b + 3) = tk2
          then b + 3
          else -1
        in
        if tj < 0 then
          (* every value live across an ordinary call gets spilled at
             function entry, so the flush + raw_refill calls may not sit
             in this body — the miss continuation re-derives its operands
             from [code] and keeps this path call-free *)
          superop_tlb_miss k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
            pg_hm
        else begin
          let v = Array.unsafe_get k_tlb.vals tj in
          Array.unsafe_set k_tlb.vals tj (v lor Array.unsafe_get code (i + 7));
          (* the mark bits live below pfn_shift, so the pre-mark value
             held in a register shifts to the same PFN as the stored
             post-mark one — no reload of the slot just written *)
          let acc = acc + (v lsr Tlb.pfn_shift) in
          let tlb_hm = tlb_hm + hit1 in
          (match k_tlb.p_policy with
          | Replacement.Lru ->
              Array.unsafe_set k_tlb.stamps tj (k_tlb.p_tick + (tlb_hm lsr 31))
          | Replacement.Fifo | Replacement.Random -> ());
          if w land skip_flag <> 0 then
            let i = i + 12 in
            if i < limit && Array.unsafe_get code i land 7 = 5 then
              superop_chain k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
                pg_hm
            else
              decode_loop k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
                pg_hm
          else if k_pg.p_ways <> 8 then
            (* the generic-width scan is a call; banish it with the cold
               paths *)
            superop_pg k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
          else
            let gk1 = w lsr 4 in
            let gb = 0 in
            let gkeys = k_pg.keys1 in
            let gj =
              if Array.unsafe_get gkeys gb = gk1 then gb
              else if Array.unsafe_get gkeys (gb + 1) = gk1 then gb + 1
              else if Array.unsafe_get gkeys (gb + 2) = gk1 then gb + 2
              else if Array.unsafe_get gkeys (gb + 3) = gk1 then gb + 3
              else if Array.unsafe_get gkeys (gb + 4) = gk1 then gb + 4
              else if Array.unsafe_get gkeys (gb + 5) = gk1 then gb + 5
              else if Array.unsafe_get gkeys (gb + 6) = gk1 then gb + 6
              else if Array.unsafe_get gkeys (gb + 7) = gk1 then gb + 7
              else -1
            in
            if gj >= 0 then begin
              let pg_hm = pg_hm + hit1 in
              (match k_pg.p_policy with
              | Replacement.Lru ->
                  Array.unsafe_set k_pg.stamps gj
                    (k_pg.p_tick + (pg_hm lsr 31))
              | Replacement.Fifo | Replacement.Random -> ());
              let acc = acc + Array.unsafe_get k_pg.vals gj in
              let i = i + 12 in
              if i < limit && Array.unsafe_get code i land 7 = 5 then
                superop_chain k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
                  pg_hm
              else
                decode_loop k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
                  pg_hm
            end
            else
              let i = i + 12 in
              if i < limit && Array.unsafe_get code i land 7 = 5 then
                superop_chain k_plb k_tlb k_pg code i limit (acc - 1) plb_hm
                  tlb_hm (pg_hm + 1)
              else
                decode_loop k_plb k_tlb k_pg code i limit (acc - 1) plb_hm
                  tlb_hm (pg_hm + 1)
        end

(* superop TLB-miss continuation: settle the deferred TLB counts, install
   the refill entry, then rejoin at the page-group leg. Re-derives the
   TLB lanes from [code] so the hot body passes nothing extra. *)
and superop_tlb_miss (k_plb : Packed_cache.packed_state)
    (k_tlb : Packed_cache.packed_state) (k_pg : Packed_cache.packed_state)
    (code : int array) i limit acc plb_hm tlb_hm pg_hm =
  flush k_tlb (tlb_hm + 1);
  Packed_cache.raw_refill k_tlb
    ~base:(Array.unsafe_get code (i + 4))
    ~k1:(Array.unsafe_get code (i + 5))
    ~k2:(Array.unsafe_get code (i + 6))
    (Array.unsafe_get code (i + 8));
  superop_pg k_plb k_tlb k_pg code i limit acc plb_hm 0 pg_hm

(* superop page-group leg, any associativity — the cold rejoin point for
   the TLB-miss continuation and for non-8-way rigs *)
and superop_pg (k_plb : Packed_cache.packed_state)
    (k_tlb : Packed_cache.packed_state) (k_pg : Packed_cache.packed_state)
    (code : int array) i limit acc plb_hm tlb_hm pg_hm =
  let w = Array.unsafe_get code i in
  if w land skip_flag <> 0 then
    let i = i + 12 in
    if i < limit && Array.unsafe_get code i land 7 = 5 then
      superop_chain k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
    else decode_loop k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
  else
    let gk1 = w lsr 4 in
    let gb = 0 in
    let gj = scan_k1 k_pg.keys1 gk1 gb (gb + k_pg.p_ways) in
    if gj >= 0 then begin
      let pg_hm = pg_hm + hit1 in
      (match k_pg.p_policy with
      | Replacement.Lru ->
          Array.unsafe_set k_pg.stamps gj (k_pg.p_tick + (pg_hm lsr 31))
      | Replacement.Fifo | Replacement.Random -> ());
      let acc = acc + Array.unsafe_get k_pg.vals gj in
      let i = i + 12 in
      if i < limit && Array.unsafe_get code i land 7 = 5 then
        superop_chain k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
      else decode_loop k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
    end
    else
      let i = i + 12 in
      if i < limit && Array.unsafe_get code i land 7 = 5 then
        superop_chain k_plb k_tlb k_pg code i limit (acc - 1) plb_hm tlb_hm
          (pg_hm + 1)
      else
        decode_loop k_plb k_tlb k_pg code i limit (acc - 1) plb_hm tlb_hm
          (pg_hm + 1)

(* Tag 6: the same superop with every policy known to be LRU at compile
   time — stamp refreshes are unconditional and the three per-hit policy
   dispatches disappear. Chains only to its own tag; a program carries a
   single access tag, so the two chains never interleave.

   The body is unrolled twice: after finishing one slot, a chaining next
   slot falls straight through into a second inline copy, so a pair of
   superops shares one function entry (parameter spills, the allocation
   poll) and one dispatch. To give the unroll a single fall-through
   point, the page-group leg joins its skip/hit/miss cases on one [gj]
   value: [min_int] encodes "skipped" so [gj land 1] is the miss
   increment (1 for the -1 miss sentinel, 0 for skip). *)
and superop_chain_lru (k_plb : Packed_cache.packed_state)
    (k_tlb : Packed_cache.packed_state) (k_pg : Packed_cache.packed_state)
    (code : int array) i limit acc plb_hm tlb_hm pg_hm =
  let w = Array.unsafe_get code i in
  let pk1 = Array.unsafe_get code (i + 2) in
  let pk2 = Array.unsafe_get code (i + 3) in
  let b = Array.unsafe_get code (i + 1) in
  let keys1 = k_plb.keys1 and keys2 = k_plb.keys2 in
  let pw = Array.unsafe_get code (i + hint_plb_lane) in
  let j =
    if Array.unsafe_get keys1 pw = pk1 && Array.unsafe_get keys2 pw = pk2
    then pw
    else begin
      let s =
        if Array.unsafe_get keys1 b = pk1 && Array.unsafe_get keys2 b = pk2
        then b
        else if
          Array.unsafe_get keys1 (b + 1) = pk1
          && Array.unsafe_get keys2 (b + 1) = pk2
        then b + 1
        else if
          Array.unsafe_get keys1 (b + 2) = pk1
          && Array.unsafe_get keys2 (b + 2) = pk2
        then b + 2
        else if
          Array.unsafe_get keys1 (b + 3) = pk1
          && Array.unsafe_get keys2 (b + 3) = pk2
        then b + 3
        else -1
      in
      if s >= 0 then Array.unsafe_set code (i + hint_plb_lane) s;
      s
    end
  in
  let plb_hm =
    if j >= 0 then begin
      let hm = plb_hm + hit1 in
      Array.unsafe_set k_plb.stamps j (k_plb.p_tick + (hm lsr 31));
      hm
    end
    else plb_hm + 1
  in
  let acc = if j >= 0 then acc + Array.unsafe_get k_plb.vals j else acc - 1 in
  let tk1 = Array.unsafe_get code (i + 5) in
  let tk2 = Array.unsafe_get code (i + 6) in
  let b = Array.unsafe_get code (i + 4) in
  let keys1 = k_tlb.keys1 and keys2 = k_tlb.keys2 in
  let tw = Array.unsafe_get code (i + hint_tlb_lane) in
  let tj =
    if Array.unsafe_get keys1 tw = tk1 && Array.unsafe_get keys2 tw = tk2
    then tw
    else begin
      let s =
        if Array.unsafe_get keys1 b = tk1 && Array.unsafe_get keys2 b = tk2
        then b
        else if
          Array.unsafe_get keys1 (b + 1) = tk1
          && Array.unsafe_get keys2 (b + 1) = tk2
        then b + 1
        else if
          Array.unsafe_get keys1 (b + 2) = tk1
          && Array.unsafe_get keys2 (b + 2) = tk2
        then b + 2
        else if
          Array.unsafe_get keys1 (b + 3) = tk1
          && Array.unsafe_get keys2 (b + 3) = tk2
        then b + 3
        else -1
      in
      if s >= 0 then Array.unsafe_set code (i + hint_tlb_lane) s;
      s
    end
  in
  if tj < 0 then
    superop_tlb_miss_lru k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
  else begin
    let v = Array.unsafe_get k_tlb.vals tj in
    Array.unsafe_set k_tlb.vals tj (v lor Array.unsafe_get code (i + 7));
    let acc = acc + (v lsr Tlb.pfn_shift) in
    let tlb_hm = tlb_hm + hit1 in
    Array.unsafe_set k_tlb.stamps tj (k_tlb.p_tick + (tlb_hm lsr 31));
    let gj =
      if w land skip_flag <> 0 then min_int
      else begin
        let gk1 = w lsr 4 in
        let gkeys = k_pg.keys1 in
        let gp = Array.unsafe_get code (i + hint_pg_lane) in
        if Array.unsafe_get gkeys gp = gk1 then gp
        else begin
          let s =
            if Array.unsafe_get gkeys 0 = gk1 then 0
            else if Array.unsafe_get gkeys 1 = gk1 then 1
            else if Array.unsafe_get gkeys 2 = gk1 then 2
            else if Array.unsafe_get gkeys 3 = gk1 then 3
            else if Array.unsafe_get gkeys 4 = gk1 then 4
            else if Array.unsafe_get gkeys 5 = gk1 then 5
            else if Array.unsafe_get gkeys 6 = gk1 then 6
            else if Array.unsafe_get gkeys 7 = gk1 then 7
            else -1
          in
          if s >= 0 then Array.unsafe_set code (i + hint_pg_lane) s;
          s
        end
      end
    in
    let pg_hm =
      if gj >= 0 then begin
        let hm = pg_hm + hit1 in
        Array.unsafe_set k_pg.stamps gj (k_pg.p_tick + (hm lsr 31));
        hm
      end
      else pg_hm + (gj land 1)
    in
    let acc =
      if gj >= 0 then acc + Array.unsafe_get k_pg.vals gj
      else acc - (gj land 1)
    in
    let i = i + 12 in
    if i < limit && Array.unsafe_get code i land 7 = 6 then begin
      (* second inline copy of the slot body *)
      let w = Array.unsafe_get code i in
      let pk1 = Array.unsafe_get code (i + 2) in
      let pk2 = Array.unsafe_get code (i + 3) in
      let b = Array.unsafe_get code (i + 1) in
      let keys1 = k_plb.keys1 and keys2 = k_plb.keys2 in
      let pw = Array.unsafe_get code (i + hint_plb_lane) in
      let j =
        if Array.unsafe_get keys1 pw = pk1 && Array.unsafe_get keys2 pw = pk2
        then pw
        else begin
          let s =
            if
              Array.unsafe_get keys1 b = pk1 && Array.unsafe_get keys2 b = pk2
            then b
            else if
              Array.unsafe_get keys1 (b + 1) = pk1
              && Array.unsafe_get keys2 (b + 1) = pk2
            then b + 1
            else if
              Array.unsafe_get keys1 (b + 2) = pk1
              && Array.unsafe_get keys2 (b + 2) = pk2
            then b + 2
            else if
              Array.unsafe_get keys1 (b + 3) = pk1
              && Array.unsafe_get keys2 (b + 3) = pk2
            then b + 3
            else -1
          in
          if s >= 0 then Array.unsafe_set code (i + hint_plb_lane) s;
          s
        end
      in
      let plb_hm =
        if j >= 0 then begin
          let hm = plb_hm + hit1 in
          Array.unsafe_set k_plb.stamps j (k_plb.p_tick + (hm lsr 31));
          hm
        end
        else plb_hm + 1
      in
      let acc =
        if j >= 0 then acc + Array.unsafe_get k_plb.vals j else acc - 1
      in
      let tk1 = Array.unsafe_get code (i + 5) in
      let tk2 = Array.unsafe_get code (i + 6) in
      let b = Array.unsafe_get code (i + 4) in
      let keys1 = k_tlb.keys1 and keys2 = k_tlb.keys2 in
      let tw = Array.unsafe_get code (i + hint_tlb_lane) in
      let tj =
        if Array.unsafe_get keys1 tw = tk1 && Array.unsafe_get keys2 tw = tk2
        then tw
        else begin
          let s =
            if
              Array.unsafe_get keys1 b = tk1 && Array.unsafe_get keys2 b = tk2
            then b
            else if
              Array.unsafe_get keys1 (b + 1) = tk1
              && Array.unsafe_get keys2 (b + 1) = tk2
            then b + 1
            else if
              Array.unsafe_get keys1 (b + 2) = tk1
              && Array.unsafe_get keys2 (b + 2) = tk2
            then b + 2
            else if
              Array.unsafe_get keys1 (b + 3) = tk1
              && Array.unsafe_get keys2 (b + 3) = tk2
            then b + 3
            else -1
          in
          if s >= 0 then Array.unsafe_set code (i + hint_tlb_lane) s;
          s
        end
      in
      if tj < 0 then
        superop_tlb_miss_lru k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
          pg_hm
      else begin
        let v = Array.unsafe_get k_tlb.vals tj in
        Array.unsafe_set k_tlb.vals tj (v lor Array.unsafe_get code (i + 7));
        let acc = acc + (v lsr Tlb.pfn_shift) in
        let tlb_hm = tlb_hm + hit1 in
        Array.unsafe_set k_tlb.stamps tj (k_tlb.p_tick + (tlb_hm lsr 31));
        let gj =
          if w land skip_flag <> 0 then min_int
          else begin
            let gk1 = w lsr 4 in
            let gkeys = k_pg.keys1 in
            let gp = Array.unsafe_get code (i + hint_pg_lane) in
            if Array.unsafe_get gkeys gp = gk1 then gp
            else begin
              let s =
                if Array.unsafe_get gkeys 0 = gk1 then 0
                else if Array.unsafe_get gkeys 1 = gk1 then 1
                else if Array.unsafe_get gkeys 2 = gk1 then 2
                else if Array.unsafe_get gkeys 3 = gk1 then 3
                else if Array.unsafe_get gkeys 4 = gk1 then 4
                else if Array.unsafe_get gkeys 5 = gk1 then 5
                else if Array.unsafe_get gkeys 6 = gk1 then 6
                else if Array.unsafe_get gkeys 7 = gk1 then 7
                else -1
              in
              if s >= 0 then Array.unsafe_set code (i + hint_pg_lane) s;
              s
            end
          end
        in
        let pg_hm =
          if gj >= 0 then begin
            let hm = pg_hm + hit1 in
            Array.unsafe_set k_pg.stamps gj (k_pg.p_tick + (hm lsr 31));
            hm
          end
          else pg_hm + (gj land 1)
        in
        let acc =
          if gj >= 0 then acc + Array.unsafe_get k_pg.vals gj
          else acc - (gj land 1)
        in
        let i = i + 12 in
        if i < limit && Array.unsafe_get code i land 7 = 6 then
          superop_chain_lru k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
            pg_hm
        else decode_loop k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
      end
    end
    else decode_loop k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
  end

and superop_tlb_miss_lru (k_plb : Packed_cache.packed_state)
    (k_tlb : Packed_cache.packed_state) (k_pg : Packed_cache.packed_state)
    (code : int array) i limit acc plb_hm tlb_hm pg_hm =
  flush k_tlb (tlb_hm + 1);
  Packed_cache.raw_refill k_tlb
    ~base:(Array.unsafe_get code (i + 4))
    ~k1:(Array.unsafe_get code (i + 5))
    ~k2:(Array.unsafe_get code (i + 6))
    (Array.unsafe_get code (i + 8));
  superop_pg_lru k_plb k_tlb k_pg code i limit acc plb_hm 0 pg_hm

and superop_pg_lru (k_plb : Packed_cache.packed_state)
    (k_tlb : Packed_cache.packed_state) (k_pg : Packed_cache.packed_state)
    (code : int array) i limit acc plb_hm tlb_hm pg_hm =
  let w = Array.unsafe_get code i in
  if w land skip_flag <> 0 then
    let i = i + 12 in
    if i < limit && Array.unsafe_get code i land 7 = 6 then
      superop_chain_lru k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
    else decode_loop k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
  else
    let gk1 = w lsr 4 in
    let gb = 0 in
    let gj = scan_k1 k_pg.keys1 gk1 gb (gb + k_pg.p_ways) in
    if gj >= 0 then begin
      let pg_hm = pg_hm + hit1 in
      Array.unsafe_set k_pg.stamps gj (k_pg.p_tick + (pg_hm lsr 31));
      let acc = acc + Array.unsafe_get k_pg.vals gj in
      let i = i + 12 in
      if i < limit && Array.unsafe_get code i land 7 = 6 then
        superop_chain_lru k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm
          pg_hm
      else decode_loop k_plb k_tlb k_pg code i limit acc plb_hm tlb_hm pg_hm
    end
    else
      let i = i + 12 in
      if i < limit && Array.unsafe_get code i land 7 = 6 then
        superop_chain_lru k_plb k_tlb k_pg code i limit (acc - 1) plb_hm
          tlb_hm (pg_hm + 1)
      else
        decode_loop k_plb k_tlb k_pg code i limit (acc - 1) plb_hm tlb_hm
          (pg_hm + 1)

let rec rep_loop prog n r acc =
  if r = 0 then acc
  else
    rep_loop prog n (r - 1)
      (decode_loop prog.k_plb prog.k_tlb prog.k_pg prog.k_code 0 n acc 0 0 0)

let run ?(reps = 1) prog = rep_loop prog (Array.length prog.k_code) reps 0

let step prog j acc =
  decode_loop prog.k_plb prog.k_tlb prog.k_pg prog.k_code prog.k_index.(j)
    prog.k_index.(j + 1) acc 0 0 0
