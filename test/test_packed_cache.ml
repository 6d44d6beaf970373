(* Differential equivalence harness: Packed_cache's int lanes against
   Ref_packed_cache (the same API over Assoc_cache, the boxed reference
   model) in lockstep. Random op sequences over all three policies and
   several geometries — including the degenerate 1×1 and a large one —
   must produce identical results op by op AND identical statistics and
   contents at every step. The key generator deliberately includes the
   min_int hash class (the [Assoc_cache.set_of] adversary): keys whose
   mixed hash lands on negative ints exercise the sign-mask in the
   packed set indexing. *)

open Sasos.Hw

module Q = QCheck2
module R = Ref_packed_cache

type op =
  | Find of int * int
  | Peek of int * int
  | Mem of int * int
  | Insert of int * int * int
  | Set of int * int * int
  | Set_masked of int * int * int * int
  | Remove of int * int
  | Purge of int (* drop entries whose payload mod n = 0 *)
  | Rewrite of int (* see [rewrite_fn] *)
  | Clear

(* A pure function of (k1, k2, v) that changes some entries and leaves
   the rest alone, as the machines' rights rewrites do. *)
let rewrite_fn m k1 k2 v =
  if (k1 + k2 + v) mod m = 0 then ((v * 3) + k1 + 1) land 1023 else v

(* The adversarial hash family: a pure function of the key that lands on
   min_int (and friends) for a slice of the key space, so the mixed value
   [h lxor (h lsr 16)] goes negative. A cache that indexes sets without
   masking would die (or diverge) here. *)
let hash_of k1 k2 =
  if k1 land 3 = 0 then min_int lor (k1 * 31) lxor k2
  else (k1 * 0x9e3779b1) lxor (k2 * 0x85ebca6b)

let op_gen =
  let open Q.Gen in
  let key = pair (int_bound 40) (int_bound 8) in
  let payload = int_bound 1000 in
  frequency
    [
      (4, map (fun (k1, k2) -> Find (k1, k2)) key);
      (2, map (fun (k1, k2) -> Peek (k1, k2)) key);
      (1, map (fun (k1, k2) -> Mem (k1, k2)) key);
      (4, map2 (fun (k1, k2) v -> Insert (k1, k2, v)) key payload);
      (2, map2 (fun (k1, k2) v -> Set (k1, k2, v)) key payload);
      ( 2,
        map3
          (fun (k1, k2) mask bits -> Set_masked (k1, k2, mask, bits land mask))
          key (int_bound 255) (int_bound 255) );
      (2, map (fun (k1, k2) -> Remove (k1, k2)) key);
      (1, map (fun n -> Purge (n + 2)) (int_bound 4));
      (1, map (fun m -> Rewrite (m + 2)) (int_bound 3));
      (1, return Clear);
    ]

let print_op = function
  | Find (a, b) -> Printf.sprintf "Find(%d,%d)" a b
  | Peek (a, b) -> Printf.sprintf "Peek(%d,%d)" a b
  | Mem (a, b) -> Printf.sprintf "Mem(%d,%d)" a b
  | Insert (a, b, v) -> Printf.sprintf "Insert(%d,%d,%d)" a b v
  | Set (a, b, v) -> Printf.sprintf "Set(%d,%d,%d)" a b v
  | Set_masked (a, b, m, x) -> Printf.sprintf "Set_masked(%d,%d,%d,%d)" a b m x
  | Remove (a, b) -> Printf.sprintf "Remove(%d,%d)" a b
  | Purge n -> Printf.sprintf "Purge(%d)" n
  | Rewrite m -> Printf.sprintf "Rewrite(%d)" m
  | Clear -> "Clear"

let geometries = [ (1, 1); (1, 4); (4, 4); (8, 2); (3, 5); (16, 8) ]
let policies = [ Replacement.Lru; Replacement.Fifo; Replacement.Random ]

let entry k1 k2 v acc = (k1, k2, v) :: acc
let contents_ref t = List.sort compare (R.fold entry t [])
let contents t = List.sort compare (Packed_cache.fold entry t [])

let check_stats ~ctx a b =
  let chk name fa fb =
    if fa a <> fb b then
      Q.Test.fail_reportf "%s: %s diverged (ref=%d packed=%d)" ctx name (fa a)
        (fb b)
  in
  chk "hits" R.hits Packed_cache.hits;
  chk "misses" R.misses Packed_cache.misses;
  chk "evictions" R.evictions Packed_cache.evictions;
  chk "length" R.length Packed_cache.length

let apply_both ~ctx a b op =
  (match op with
  | Find (k1, k2) ->
      let hash = hash_of k1 k2 in
      let ra = R.find a ~hash ~k1 ~k2 in
      let rb = Packed_cache.find b ~hash ~k1 ~k2 in
      if ra <> rb then
        Q.Test.fail_reportf "%s: find (ref=%d packed=%d)" ctx ra rb
  | Peek (k1, k2) ->
      let hash = hash_of k1 k2 in
      let ra = R.peek a ~hash ~k1 ~k2 in
      let rb = Packed_cache.peek b ~hash ~k1 ~k2 in
      if ra <> rb then
        Q.Test.fail_reportf "%s: peek (ref=%d packed=%d)" ctx ra rb
  | Mem (k1, k2) ->
      let hash = hash_of k1 k2 in
      let ra = R.mem a ~hash ~k1 ~k2 in
      let rb = Packed_cache.mem b ~hash ~k1 ~k2 in
      if ra <> rb then Q.Test.fail_reportf "%s: mem diverged" ctx
  | Insert (k1, k2, v) ->
      let hash = hash_of k1 k2 in
      R.insert a ~hash ~k1 ~k2 v;
      Packed_cache.insert b ~hash ~k1 ~k2 v;
      let va = R.last_eviction a in
      let vb = Packed_cache.last_eviction b in
      if va <> vb then
        Q.Test.fail_reportf "%s: eviction victim diverged" ctx
  | Set (k1, k2, v) ->
      let hash = hash_of k1 k2 in
      let ra = R.set a ~hash ~k1 ~k2 v in
      let rb = Packed_cache.set b ~hash ~k1 ~k2 v in
      if ra <> rb then Q.Test.fail_reportf "%s: set result diverged" ctx
  | Set_masked (k1, k2, mask, bits) ->
      let hash = hash_of k1 k2 in
      let ra = R.set_masked a ~hash ~k1 ~k2 ~mask ~bits in
      let rb = Packed_cache.set_masked b ~hash ~k1 ~k2 ~mask ~bits in
      if ra <> rb then Q.Test.fail_reportf "%s: set_masked diverged" ctx
  | Remove (k1, k2) ->
      let hash = hash_of k1 k2 in
      let ra = R.remove a ~hash ~k1 ~k2 in
      let rb = Packed_cache.remove b ~hash ~k1 ~k2 in
      if ra <> rb then Q.Test.fail_reportf "%s: remove diverged" ctx
  | Purge n ->
      let p _ _ v = v mod n = 0 in
      let ra = R.purge a p in
      let rb = Packed_cache.purge b p in
      if ra <> rb then
        Q.Test.fail_reportf "%s: purge (ref=(%d,%d) packed=(%d,%d))" ctx
          (fst ra) (snd ra) (fst rb) (snd rb)
  | Rewrite m ->
      let ra = R.rewrite a (rewrite_fn m) in
      let rb = Packed_cache.rewrite b (rewrite_fn m) in
      if ra <> rb then
        Q.Test.fail_reportf "%s: rewrite (ref=%d packed=%d)" ctx ra rb
  | Clear ->
      let ra = R.clear a in
      let rb = Packed_cache.clear b in
      if ra <> rb then Q.Test.fail_reportf "%s: clear diverged" ctx);
  check_stats ~ctx a b;
  if contents_ref a <> contents b then
    Q.Test.fail_reportf "%s: contents diverged" ctx

let lockstep_prop ops =
  List.iter
    (fun (sets, ways) ->
      List.iter
        (fun policy ->
          let a = R.create ~policy ~sets ~ways () in
          let b = Packed_cache.create ~policy ~sets ~ways () in
          List.iteri
            (fun i op ->
              let ctx =
                Printf.sprintf "%dx%d %s op#%d %s" sets ways
                  (Replacement.to_string policy)
                  i (print_op op)
              in
              apply_both ~ctx a b op)
            ops)
        policies)
    geometries;
  true

let lockstep =
  Q.Test.make ~name:"packed lockstep vs reference" ~count:200
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    Q.Gen.(list_size (int_range 1 120) op_gen)
    lockstep_prop

(* Regression: keys whose hash is exactly min_int (mixed value is
   negative) must index a valid set and behave identically in both
   models — the same family as the Assoc_cache.set_of bug. *)
let test_min_int_hash () =
  List.iter
    (fun (sets, ways) ->
      let a = R.create ~sets ~ways () in
      let b = Packed_cache.create ~sets ~ways () in
      List.iteri
        (fun i hash ->
          let k1 = i and k2 = 7 in
          R.insert a ~hash ~k1 ~k2 i;
          Packed_cache.insert b ~hash ~k1 ~k2 i;
          Alcotest.(check int)
            (Printf.sprintf "find after insert (hash=%d)" hash)
            (R.find a ~hash ~k1 ~k2)
            (Packed_cache.find b ~hash ~k1 ~k2))
        [ min_int; min_int + 1; min_int lxor 0xffff; -1; max_int; 0 ];
      Alcotest.(check int) "length agrees" (R.length a) (Packed_cache.length b);
      Alcotest.(check int) "hits agree" (R.hits a) (Packed_cache.hits b))
    [ (1, 1); (7, 3); (64, 4) ]

(* The PLB's own key hash, driven through the wrapper with PDs/addresses
   chosen so the multiplicative mix goes negative: resident entries must
   be found again. *)
let test_plb_adversarial_keys () =
  let plb = Sasos.Hw.Plb.create ~sets:4 ~ways:2 () in
  (* large context-tag PDs (Okamoto ctx_tag_base + id) and high VAs drive
     the multiplicative hash across the sign bit *)
  let pds = [ 0x4000_0000; 0x4000_0001; 0x7fff_ffff; 1 ] in
  List.iteri
    (fun i pdi ->
      let pd = Sasos.Addr.Pd.of_int pdi in
      let va = (i + 1) * 0x1234_5000 in
      Sasos.Hw.Plb.install plb ~pd ~va ~shift:12 Sasos.Addr.Rights.rw;
      match Sasos.Hw.Plb.lookup plb ~pd ~va with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "rights intact (pd=%#x)" pdi)
            true
            (Sasos.Addr.Rights.equal r Sasos.Addr.Rights.rw)
      | None -> Alcotest.failf "lost pd=%#x va=%#x" pdi va)
    pds

(* In one 2-way LRU set holding keys 1 then 2, [probe] runs on key 1 and
   key 3 is inserted: returns the victim's k1 and the hit/miss counts
   left by the probe. A counted, recency-touching [find] makes key 2 the
   victim; an uncounted, recency-neutral probe leaves key 1 oldest. *)
let victim_after probe =
  let t = Packed_cache.create ~sets:1 ~ways:2 () in
  Packed_cache.insert t ~hash:1 ~k1:1 ~k2:0 10;
  Packed_cache.insert t ~hash:2 ~k1:2 ~k2:0 20;
  probe t;
  let counts = (Packed_cache.hits t, Packed_cache.misses t) in
  Packed_cache.insert t ~hash:3 ~k1:3 ~k2:0 30;
  match Packed_cache.last_eviction t with
  | Some (k1, _, _) -> (k1, counts)
  | None -> Alcotest.fail "full set evicted nothing"

(* Plb.lookup_bits and the machines' fix-up paths peek on every access:
   a peek that counted or refreshed recency would change every run. *)
let test_peek_uncounted () =
  Alcotest.(check (pair int (pair int int)))
    "find refreshes key 1" (2, (1, 0))
    (victim_after (fun t -> ignore (Packed_cache.find t ~hash:1 ~k1:1 ~k2:0)));
  Alcotest.(check (pair int (pair int int)))
    "peek leaves key 1 oldest" (1, (0, 0))
    (victim_after (fun t ->
         Alcotest.(check int) "peek hit" 10
           (Packed_cache.peek t ~hash:1 ~k1:1 ~k2:0);
         Alcotest.(check int) "peek miss" Packed_cache.absent
           (Packed_cache.peek t ~hash:3 ~k1:3 ~k2:0)))

(* [mem] backs Page_group_cache.resident, which must not disturb the
   cache it reports on. *)
let test_mem_uncounted () =
  Alcotest.(check (pair int (pair int int)))
    "mem leaves key 1 oldest" (1, (0, 0))
    (victim_after (fun t ->
         Alcotest.(check bool) "resident" true
           (Packed_cache.mem t ~hash:1 ~k1:1 ~k2:0);
         Alcotest.(check bool) "absent" false
           (Packed_cache.mem t ~hash:3 ~k1:3 ~k2:0)))

(* The TLB's rights rebuilds sweep with [rewrite]: every way of every
   set is visited, only changed payloads are counted, and neither
   statistics nor recency move. *)
let test_rewrite_every_way () =
  let t = Packed_cache.create ~sets:2 ~ways:4 () in
  (* hashes below 2^16 mix to themselves: keys 0..7 fill both sets *)
  for k = 0 to 7 do
    Packed_cache.insert t ~hash:k ~k1:k ~k2:1 k
  done;
  Alcotest.(check int) "full" 8 (Packed_cache.length t);
  Alcotest.(check int) "all changed" 8
    (Packed_cache.rewrite t (fun _ _ v -> v + 100));
  Alcotest.(check (list int)) "every payload rewritten"
    [ 100; 101; 102; 103; 104; 105; 106; 107 ]
    (List.sort compare (Packed_cache.fold (fun _ _ v acc -> v :: acc) t []));
  Alcotest.(check int) "odd keys only" 4
    (Packed_cache.rewrite t (fun k1 _ v -> if k1 land 1 = 1 then v + 1 else v));
  Alcotest.(check int) "identity changes nothing" 0
    (Packed_cache.rewrite t (fun _ _ v -> v));
  Alcotest.(check (pair int int)) "no hits or misses" (0, 0)
    (Packed_cache.hits t, Packed_cache.misses t);
  Alcotest.check_raises "negative payload"
    (Invalid_argument "Packed_cache.rewrite: payload must be >= 0") (fun () ->
      ignore (Packed_cache.rewrite t (fun _ _ _ -> -1)))

let test_negative_payload_rejected () =
  let t = Packed_cache.create ~sets:1 ~ways:1 () in
  Alcotest.check_raises "insert"
    (Invalid_argument "Packed_cache.insert: payload must be >= 0") (fun () ->
      Packed_cache.insert t ~hash:0 ~k1:0 ~k2:0 (-2))

(* A negative k1 would collide with the lanes' free-slot sentinel, so it
   may not be stored. *)
let test_negative_key_rejected () =
  let t = Packed_cache.create ~sets:1 ~ways:1 () in
  Alcotest.check_raises "insert"
    (Invalid_argument "Packed_cache.insert: key1 must be >= 0") (fun () ->
      Packed_cache.insert t ~hash:0 ~k1:(-1) ~k2:0 5);
  Alcotest.(check int) "nothing stored" 0 (Packed_cache.length t)

let suite =
  [
    Qprop.to_alcotest lockstep;
    Alcotest.test_case "min_int hash class" `Quick test_min_int_hash;
    Alcotest.test_case "plb adversarial keys" `Quick test_plb_adversarial_keys;
    Alcotest.test_case "peek is uncounted and recency-neutral" `Quick
      test_peek_uncounted;
    Alcotest.test_case "mem is uncounted and recency-neutral" `Quick
      test_mem_uncounted;
    Alcotest.test_case "rewrite reaches every way" `Quick
      test_rewrite_every_way;
    Alcotest.test_case "negative payload rejected" `Quick
      test_negative_payload_rejected;
    Alcotest.test_case "negative key rejected" `Quick
      test_negative_key_rejected;
  ]
