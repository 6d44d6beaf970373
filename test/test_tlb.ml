open Sasos
open Sasos.Hw

let entry pfn =
  Tlb.pack ~pfn ~rights:Rights.rwx ~aid:0 ~dirty:false ~referenced:false

let test_install_lookup () =
  let t = Tlb.create ~sets:1 ~ways:4 () in
  Tlb.install t ~space:0 ~vpn:10 (entry 100);
  let e = Tlb.lookup t ~space:0 ~vpn:10 in
  if e = Tlb.absent then Alcotest.fail "expected hit";
  Alcotest.(check int) "pfn" 100 (Tlb.pfn_of e);
  Alcotest.(check bool) "other space misses" true
    (Tlb.lookup t ~space:1 ~vpn:10 = Tlb.absent)

let test_space_tagging () =
  let t = Tlb.create ~sets:1 ~ways:8 () in
  Tlb.install t ~space:1 ~vpn:5 (entry 11);
  Tlb.install t ~space:2 ~vpn:5 (entry 11);
  Tlb.install t ~space:3 ~vpn:5 (entry 11);
  Alcotest.(check int) "3 copies of shared page" 3 (Tlb.entries_for_vpn t 5);
  let inspected, removed = Tlb.invalidate_vpn_all_spaces t 5 in
  Alcotest.(check int) "inspected" 3 inspected;
  Alcotest.(check int) "removed" 3 removed;
  Alcotest.(check int) "gone" 0 (Tlb.entries_for_vpn t 5)

let test_purge_space () =
  let t = Tlb.create ~sets:1 ~ways:8 () in
  Tlb.install t ~space:1 ~vpn:5 (entry 1);
  Tlb.install t ~space:1 ~vpn:6 (entry 2);
  Tlb.install t ~space:2 ~vpn:5 (entry 1);
  let _, removed = Tlb.purge_space t 1 in
  Alcotest.(check int) "space 1 dropped" 2 removed;
  Alcotest.(check int) "space 2 kept" 1 (Tlb.length t)

let test_flush () =
  let t = Tlb.create ~sets:2 ~ways:2 () in
  Tlb.install t ~space:0 ~vpn:1 (entry 1);
  Tlb.install t ~space:0 ~vpn:2 (entry 2);
  Alcotest.(check int) "flush count" 2 (Tlb.flush t);
  Alcotest.(check int) "empty" 0 (Tlb.length t)

let test_mutation () =
  let t = Tlb.create ~sets:1 ~ways:2 () in
  Tlb.install t ~space:0 ~vpn:1 (entry 1);
  Tlb.mark_used t ~space:0 ~vpn:1 ~write:true;
  Alcotest.(check bool) "set_rights hits" true
    (Tlb.set_rights t ~space:0 ~vpn:1 Rights.r);
  let e = Tlb.peek t ~space:0 ~vpn:1 in
  if e = Tlb.absent then Alcotest.fail "peek expected";
  Alcotest.(check bool) "dirty persisted" true (Tlb.dirty_of e);
  Alcotest.(check bool) "referenced persisted" true (Tlb.referenced_of e);
  Alcotest.(check bool) "rights persisted" true
    (Rights.equal (Tlb.rights_of e) Rights.r);
  Alcotest.(check int) "pfn untouched" 1 (Tlb.pfn_of e)

let test_pack_roundtrip () =
  let max_pfn = (1 lsl 31) - 1 and max_aid = (1 lsl 26) - 1 in
  let e =
    Tlb.pack ~pfn:max_pfn ~rights:Rights.rw ~aid:max_aid ~dirty:true
      ~referenced:false
  in
  Alcotest.(check bool) "non-negative" true (e >= 0);
  Alcotest.(check int) "pfn" max_pfn (Tlb.pfn_of e);
  Alcotest.(check int) "aid" max_aid (Tlb.aid_of e);
  Alcotest.(check bool) "rights" true (Rights.equal (Tlb.rights_of e) Rights.rw);
  Alcotest.(check bool) "dirty" true (Tlb.dirty_of e);
  Alcotest.(check bool) "referenced" false (Tlb.referenced_of e);
  let e' = Tlb.with_rights e Rights.x in
  Alcotest.(check bool) "with_rights" true
    (Rights.equal (Tlb.rights_of e') Rights.x);
  Alcotest.(check int) "with_rights keeps pfn" max_pfn (Tlb.pfn_of e');
  Alcotest.(check int) "with_rights keeps aid" max_aid (Tlb.aid_of e');
  Alcotest.check_raises "pfn overflow"
    (Invalid_argument "Tlb.pack: pfn out of range") (fun () ->
      ignore
        (Tlb.pack ~pfn:(max_pfn + 1) ~rights:Rights.r ~aid:0 ~dirty:false
           ~referenced:false));
  Alcotest.check_raises "aid overflow"
    (Invalid_argument "Tlb.pack: aid out of range") (fun () ->
      ignore
        (Tlb.pack ~pfn:0 ~rights:Rights.r ~aid:(max_aid + 1) ~dirty:false
           ~referenced:false))

let test_eviction_bound () =
  let t = Tlb.create ~sets:1 ~ways:4 () in
  for vpn = 0 to 63 do
    Tlb.install t ~space:0 ~vpn (entry vpn)
  done;
  Alcotest.(check int) "bounded" 4 (Tlb.length t)

(* -- lockstep vs the boxed reference ---------------------------------

   A small fully associative TLB (one set, so placement does not depend
   on the entry hash) driven op by op against Assoc_cache, the boxed
   reference cache, under each replacement policy. The reference rebuilds
   every entry it changes through [pack] and the field readers, so the
   TLB's in-place bit surgery (mark_used, set_rights, set_protection)
   must land on exactly the fields it names. *)

module Ref = Assoc_cache.Make (struct
  type t = int * int (* space, vpn *)

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type lockstep_op =
  | Lookup of int * int (* space, vpn *)
  | Install of int * int * int * int * int (* space, vpn, pfn, rights, aid *)
  | Mark_used of int * int * bool
  | Set_rights of int * int * int
  | Set_protection of int * int * int * int (* space, vpn, aid, rights *)
  | Invalidate of int * int
  | Shootdown of int (* invalidate_vpn_all_spaces *)
  | Purge_space of int
  | Flush

let print_lockstep_op = function
  | Lookup (s, v) -> Printf.sprintf "Lookup(%d,%d)" s v
  | Install (s, v, pfn, r, aid) ->
      Printf.sprintf "Install(%d,%d,%d,%d,%d)" s v pfn r aid
  | Mark_used (s, v, w) -> Printf.sprintf "Mark_used(%d,%d,%b)" s v w
  | Set_rights (s, v, r) -> Printf.sprintf "Set_rights(%d,%d,%d)" s v r
  | Set_protection (s, v, aid, r) ->
      Printf.sprintf "Set_protection(%d,%d,%d,%d)" s v aid r
  | Invalidate (s, v) -> Printf.sprintf "Invalidate(%d,%d)" s v
  | Shootdown v -> Printf.sprintf "Shootdown(%d)" v
  | Purge_space s -> Printf.sprintf "Purge_space(%d)" s
  | Flush -> "Flush"

let lockstep_op_gen =
  let open QCheck2.Gen in
  let space = int_bound 2 and vpn = int_bound 11 and r = int_bound 7 in
  let aid = oneof [ int_bound 9; return ((1 lsl 26) - 1) ] in
  let pfn = oneof [ int_bound 1000; return ((1 lsl 31) - 1) ] in
  frequency
    [
      (5, map2 (fun s v -> Lookup (s, v)) space vpn);
      ( 4,
        map3
          (fun (s, v) (pfn, r) aid -> Install (s, v, pfn, r, aid))
          (pair space vpn) (pair pfn r) aid );
      (3, map3 (fun s v w -> Mark_used (s, v, w)) space vpn bool);
      (2, map3 (fun s v r -> Set_rights (s, v, r)) space vpn r);
      ( 2,
        map3
          (fun (s, v) aid r -> Set_protection (s, v, aid, r))
          (pair space vpn) aid r );
      (2, map2 (fun s v -> Invalidate (s, v)) space vpn);
      (1, map (fun v -> Shootdown v) vpn);
      (1, map (fun s -> Purge_space s) space);
      (1, return Flush);
    ]

let repack ?pfn ?rights ?aid ?dirty ?referenced e =
  let ( // ) o d = Option.value o ~default:d in
  Tlb.pack
    ~pfn:(pfn // Tlb.pfn_of e)
    ~rights:(rights // Tlb.rights_of e)
    ~aid:(aid // Tlb.aid_of e)
    ~dirty:(dirty // Tlb.dirty_of e)
    ~referenced:(referenced // Tlb.referenced_of e)

let tlb_lockstep_step t m op =
  let or_absent = function Some e -> e | None -> Tlb.absent in
  match op with
  | Lookup (space, vpn) ->
      Tlb.lookup t ~space ~vpn = or_absent (Ref.find m (space, vpn))
  | Install (space, vpn, pfn, r, aid) ->
      let e =
        Tlb.pack ~pfn ~rights:(Rights.of_int r) ~aid ~dirty:false
          ~referenced:false
      in
      Tlb.install t ~space ~vpn e;
      ignore (Ref.insert m (space, vpn) e);
      true
  | Mark_used (space, vpn, write) ->
      Tlb.mark_used t ~space ~vpn ~write;
      ignore
        (Ref.update m (space, vpn) (fun e ->
             repack ~referenced:true ~dirty:(write || Tlb.dirty_of e) e));
      true
  | Set_rights (space, vpn, r) ->
      let rights = Rights.of_int r in
      Tlb.set_rights t ~space ~vpn rights
      = Ref.update m (space, vpn) (repack ~rights)
  | Set_protection (space, vpn, aid, r) ->
      let rights = Rights.of_int r in
      Tlb.set_protection t ~space ~vpn ~aid ~rights
      = Ref.update m (space, vpn) (repack ~aid ~rights)
  | Invalidate (space, vpn) ->
      Tlb.invalidate t ~space ~vpn = Ref.remove m (space, vpn)
  | Shootdown vpn ->
      Tlb.invalidate_vpn_all_spaces t vpn
      = Ref.purge m (fun (_, v) _ -> v = vpn)
  | Purge_space space ->
      Tlb.purge_space t space = Ref.purge m (fun (s, _) _ -> s = space)
  | Flush -> Tlb.flush t = Ref.clear m

let tlb_contents t =
  let acc = ref [] in
  Tlb.iter (fun space vpn e -> acc := (space, vpn, e) :: !acc) t;
  List.sort compare !acc

let ref_contents m =
  List.sort compare (Ref.fold (fun (s, v) e acc -> (s, v, e) :: acc) m [])

let prop_lockstep_reference =
  QCheck2.Test.make ~count:200
    ~name:"TLB lockstep vs reference, all policies"
    ~print:(fun (policy, ops) ->
      Replacement.to_string policy ^ ": "
      ^ String.concat " " (List.map print_lockstep_op ops))
    QCheck2.Gen.(
      pair
        (oneofl Replacement.[ Lru; Fifo; Random ])
        (list_size (int_range 1 120) lockstep_op_gen))
    (fun (policy, ops) ->
      let t = Tlb.create ~policy ~sets:1 ~ways:8 () in
      let m = Ref.create ~policy ~sets:1 ~ways:8 () in
      List.for_all
        (fun op ->
          tlb_lockstep_step t m op
          && Tlb.hits t = Ref.hits m
          && Tlb.misses t = Ref.misses m
          && Tlb.length t = Ref.length m
          && tlb_contents t = ref_contents m)
        ops)

let suite =
  [
    Alcotest.test_case "install/lookup" `Quick test_install_lookup;
    Alcotest.test_case "space tagging and shootdown" `Quick test_space_tagging;
    Alcotest.test_case "purge space" `Quick test_purge_space;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "entry mutation" `Quick test_mutation;
    Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
    Qprop.to_alcotest prop_lockstep_reference;
    Alcotest.test_case "eviction bound" `Quick test_eviction_bound;
  ]
