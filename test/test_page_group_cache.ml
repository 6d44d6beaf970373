open Sasos.Hw

let test_public_group () =
  let c = Page_group_cache.create ~entries:4 () in
  (match Page_group_cache.check c ~aid:0 with
  | Page_group_cache.Allowed { write_disabled } ->
      Alcotest.(check bool) "aid 0 writes enabled" false write_disabled
  | Page_group_cache.Denied -> Alcotest.fail "aid 0 must always be allowed");
  Alcotest.(check int) "no probe counted" 0
    (Page_group_cache.hits c + Page_group_cache.misses c)

let test_load_check () =
  let c = Page_group_cache.create ~entries:4 () in
  Alcotest.(check bool) "denied before load" true
    (Page_group_cache.check c ~aid:7 = Page_group_cache.Denied);
  Page_group_cache.load c ~aid:7 ~write_disabled:false;
  (match Page_group_cache.check c ~aid:7 with
  | Page_group_cache.Allowed { write_disabled } ->
      Alcotest.(check bool) "wd false" false write_disabled
  | Page_group_cache.Denied -> Alcotest.fail "should be allowed")

let test_write_disable () =
  let c = Page_group_cache.create ~entries:4 () in
  Page_group_cache.load c ~aid:3 ~write_disabled:true;
  (match Page_group_cache.check c ~aid:3 with
  | Page_group_cache.Allowed { write_disabled } ->
      Alcotest.(check bool) "wd set" true write_disabled
  | Page_group_cache.Denied -> Alcotest.fail "allowed");
  Alcotest.(check bool) "flip wd" true
    (Page_group_cache.set_write_disable c ~aid:3 false);
  match Page_group_cache.check c ~aid:3 with
  | Page_group_cache.Allowed { write_disabled } ->
      Alcotest.(check bool) "wd cleared" false write_disabled
  | Page_group_cache.Denied -> Alcotest.fail "allowed"

let test_capacity_lru () =
  (* the stock PA-RISC: 4 PID registers *)
  let c = Page_group_cache.create ~entries:4 () in
  for aid = 1 to 4 do
    Page_group_cache.load c ~aid ~write_disabled:false
  done;
  (* touch 1 so it is most recent; loading a 5th evicts 2 *)
  ignore (Page_group_cache.check c ~aid:1);
  Page_group_cache.load c ~aid:5 ~write_disabled:false;
  Alcotest.(check int) "still 4" 4 (Page_group_cache.length c);
  Alcotest.(check bool) "1 survived" true (Page_group_cache.resident c ~aid:1);
  Alcotest.(check bool) "2 evicted" false (Page_group_cache.resident c ~aid:2)

let test_drop_flush () =
  let c = Page_group_cache.create ~entries:8 () in
  Page_group_cache.load c ~aid:1 ~write_disabled:false;
  Page_group_cache.load c ~aid:2 ~write_disabled:false;
  Alcotest.(check bool) "drop" true (Page_group_cache.drop c ~aid:1);
  Alcotest.(check bool) "drop absent" false (Page_group_cache.drop c ~aid:1);
  Alcotest.(check int) "flush rest" 1 (Page_group_cache.flush c)

let test_load_zero_noop () =
  let c = Page_group_cache.create ~entries:2 () in
  Page_group_cache.load c ~aid:0 ~write_disabled:true;
  Alcotest.(check int) "aid 0 not stored" 0 (Page_group_cache.length c)

(* -- lockstep vs the boxed reference ---------------------------------

   A 4-entry cache driven op by op against Assoc_cache, the boxed
   reference cache, under each replacement policy. AID 0 is the public
   group: the reference answers it without touching the cache, so it is
   allowed, never counted and never stored. *)

module Ref = Assoc_cache.Make (Int)

type lockstep_op =
  | Check of int
  | Check_bits of int
  | Load of int * bool
  | Set_write_disable of int * bool
  | Drop of int
  | Resident of int
  | Flush

let print_lockstep_op = function
  | Check a -> Printf.sprintf "Check(%d)" a
  | Check_bits a -> Printf.sprintf "Check_bits(%d)" a
  | Load (a, d) -> Printf.sprintf "Load(%d,%b)" a d
  | Set_write_disable (a, d) -> Printf.sprintf "Set_write_disable(%d,%b)" a d
  | Drop a -> Printf.sprintf "Drop(%d)" a
  | Resident a -> Printf.sprintf "Resident(%d)" a
  | Flush -> "Flush"

let lockstep_op_gen =
  let open QCheck2.Gen in
  let aid = int_bound 7 in
  frequency
    [
      (4, map (fun a -> Check a) aid);
      (3, map (fun a -> Check_bits a) aid);
      (4, map2 (fun a d -> Load (a, d)) aid bool);
      (2, map2 (fun a d -> Set_write_disable (a, d)) aid bool);
      (2, map (fun a -> Drop a) aid);
      (1, map (fun a -> Resident a) aid);
      (1, return Flush);
    ]

let ref_check_bits m aid =
  if aid = 0 then 0
  else match Ref.find m aid with None -> -1 | Some d -> Bool.to_int d

let pgc_lockstep_step c m op =
  match op with
  | Check aid ->
      let want =
        match ref_check_bits m aid with
        | -1 -> Page_group_cache.Denied
        | b -> Page_group_cache.Allowed { write_disabled = b = 1 }
      in
      Page_group_cache.check c ~aid = want
  | Check_bits aid -> Page_group_cache.check_bits c ~aid = ref_check_bits m aid
  | Load (aid, write_disabled) ->
      Page_group_cache.load c ~aid ~write_disabled;
      if aid <> 0 then ignore (Ref.insert m aid write_disabled);
      true
  | Set_write_disable (aid, d) ->
      Page_group_cache.set_write_disable c ~aid d
      = Ref.update m aid (fun _ -> d)
  | Drop aid -> Page_group_cache.drop c ~aid = Ref.remove m aid
  | Resident aid ->
      Page_group_cache.resident c ~aid = (aid = 0 || Ref.mem m aid)
  | Flush -> Page_group_cache.flush c = Ref.clear m

let pgc_contents c =
  let acc = ref [] in
  Page_group_cache.iter (fun aid d -> acc := (aid, d) :: !acc) c;
  List.sort compare !acc

let ref_contents m =
  List.sort compare (Ref.fold (fun aid d acc -> (aid, d) :: acc) m [])

let prop_lockstep_reference =
  QCheck2.Test.make ~count:200
    ~name:"page-group cache lockstep vs reference, all policies"
    ~print:(fun (policy, ops) ->
      Replacement.to_string policy ^ ": "
      ^ String.concat " " (List.map print_lockstep_op ops))
    QCheck2.Gen.(
      pair
        (oneofl Replacement.[ Lru; Fifo; Random ])
        (list_size (int_range 1 120) lockstep_op_gen))
    (fun (policy, ops) ->
      let c = Page_group_cache.create ~policy ~entries:4 () in
      let m = Ref.create ~policy ~sets:1 ~ways:4 () in
      List.for_all
        (fun op ->
          pgc_lockstep_step c m op
          && Page_group_cache.hits c = Ref.hits m
          && Page_group_cache.misses c = Ref.misses m
          && Page_group_cache.length c = Ref.length m
          && pgc_contents c = ref_contents m)
        ops)

let suite =
  [
    Alcotest.test_case "public group (aid 0)" `Quick test_public_group;
    Alcotest.test_case "load and check" `Quick test_load_check;
    Alcotest.test_case "write-disable bit" `Quick test_write_disable;
    Alcotest.test_case "capacity + LRU (4 PIDs)" `Quick test_capacity_lru;
    Alcotest.test_case "drop and flush" `Quick test_drop_flush;
    Alcotest.test_case "loading aid 0 is a no-op" `Quick test_load_zero_noop;
    Qprop.to_alcotest prop_lockstep_reference;
  ]
