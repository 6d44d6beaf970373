open Sasos
open Sasos.Hw

let pd n = Pd.of_int n

let test_basic () =
  let p = Plb.create ~sets:1 ~ways:4 () in
  Plb.install p ~pd:(pd 1) ~va:0x5000 ~shift:12 Rights.rw;
  Alcotest.(check bool) "hit same page" true
    (Plb.lookup p ~pd:(pd 1) ~va:0x5abc = Some Rights.rw);
  Alcotest.(check bool) "other domain misses" true
    (Plb.lookup p ~pd:(pd 2) ~va:0x5000 = None);
  Alcotest.(check bool) "other page misses" true
    (Plb.lookup p ~pd:(pd 1) ~va:0x6000 = None)

let test_per_domain_entries () =
  (* the duplication of §3.1: one entry per (domain, page) *)
  let p = Plb.create ~sets:1 ~ways:8 () in
  for d = 1 to 4 do
    Plb.install p ~pd:(pd d) ~va:0x5000 ~shift:12 Rights.r
  done;
  Alcotest.(check int) "four entries for shared page" 4
    (Plb.entries_for_va p 0x5000)

let test_update_rights () =
  let p = Plb.create ~sets:1 ~ways:4 () in
  Plb.install p ~pd:(pd 1) ~va:0x5000 ~shift:12 Rights.rw;
  Alcotest.(check bool) "update resident" true
    (Plb.update_rights p ~pd:(pd 1) ~va:0x5000 Rights.r);
  Alcotest.(check bool) "reads back" true
    (Plb.lookup p ~pd:(pd 1) ~va:0x5000 = Some Rights.r);
  Alcotest.(check bool) "update absent" false
    (Plb.update_rights p ~pd:(pd 2) ~va:0x5000 Rights.r)

let test_purge_matching () =
  let p = Plb.create ~sets:1 ~ways:8 () in
  Plb.install p ~pd:(pd 1) ~va:0x5000 ~shift:12 Rights.rw;
  Plb.install p ~pd:(pd 1) ~va:0x6000 ~shift:12 Rights.rw;
  Plb.install p ~pd:(pd 2) ~va:0x5000 ~shift:12 Rights.rw;
  let inspected, removed =
    Plb.purge_matching p (fun d _ _ -> Pd.equal d (pd 1))
  in
  Alcotest.(check int) "inspected all" 3 inspected;
  Alcotest.(check int) "removed domain 1" 2 removed;
  Alcotest.(check int) "domain 2 survives" 1 (Plb.entries_for_va p 0x5000)

let test_update_matching () =
  let p = Plb.create ~sets:1 ~ways:8 () in
  Plb.install p ~pd:(pd 1) ~va:0x5000 ~shift:12 Rights.rw;
  Plb.install p ~pd:(pd 2) ~va:0x5000 ~shift:12 Rights.rw;
  Plb.install p ~pd:(pd 1) ~va:0x6000 ~shift:12 Rights.rw;
  let inspected, updated =
    Plb.update_matching p (fun _ base r ->
        if base = 0x5000 then Some Rights.r else Some r)
  in
  Alcotest.(check int) "inspected" 3 inspected;
  Alcotest.(check int) "updated" 2 updated;
  Alcotest.(check bool) "both domains read-only" true
    (Plb.lookup p ~pd:(pd 1) ~va:0x5000 = Some Rights.r
    && Plb.lookup p ~pd:(pd 2) ~va:0x5000 = Some Rights.r);
  Alcotest.(check bool) "other page untouched" true
    (Plb.lookup p ~pd:(pd 1) ~va:0x6000 = Some Rights.rw)

let test_multi_grain () =
  (* §4.3: a 4 MB entry covers the segment; a fine entry overrides it *)
  let p = Plb.create ~shifts:[ 12; 22 ] ~sets:1 ~ways:4 () in
  let base = 0x400000 (* 4 MB aligned *) in
  Plb.install p ~pd:(pd 1) ~va:base ~shift:22 Rights.rw;
  Alcotest.(check bool) "coarse covers interior page" true
    (Plb.lookup p ~pd:(pd 1) ~va:(base + 0x123456) = Some Rights.rw);
  (* fine deny overrides coarse grant *)
  Plb.install p ~pd:(pd 1) ~va:(base + 0x5000) ~shift:12 Rights.none;
  Alcotest.(check bool) "fine entry wins" true
    (Plb.lookup p ~pd:(pd 1) ~va:(base + 0x5abc) = Some Rights.none);
  Alcotest.(check bool) "rest still coarse" true
    (Plb.lookup p ~pd:(pd 1) ~va:(base + 0x9000) = Some Rights.rw);
  (* invalidate drops both grains for that address *)
  ignore (Plb.invalidate p ~pd:(pd 1) ~va:(base + 0x5000));
  Alcotest.(check bool) "both dropped at that va" true
    (Plb.lookup p ~pd:(pd 1) ~va:(base + 0x5000) = None)

let test_unconfigured_shift () =
  let p = Plb.create ~sets:1 ~ways:4 () in
  Alcotest.check_raises "bad shift"
    (Invalid_argument "Plb.install: unconfigured protection page size")
    (fun () -> Plb.install p ~pd:(pd 1) ~va:0 ~shift:13 Rights.r)

let test_stats () =
  let p = Plb.create ~sets:1 ~ways:4 () in
  ignore (Plb.lookup p ~pd:(pd 1) ~va:0);
  Plb.install p ~pd:(pd 1) ~va:0 ~shift:12 Rights.r;
  ignore (Plb.lookup p ~pd:(pd 1) ~va:0);
  Alcotest.(check int) "one miss" 1 (Plb.misses p);
  Alcotest.(check int) "one hit" 1 (Plb.hits p);
  Plb.reset_stats p;
  Alcotest.(check int) "reset" 0 (Plb.hits p)

(* Model-based property: with unbounded capacity (ways >= keys used), the
   multi-grain PLB must agree with a naive finest-grain-wins reference. *)
let prop_multigrain_model =
  let shifts = [ 12; 14; 16 ] in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (oneof
           [
             (* install: pd, grain index, region index, rights *)
             map
               (fun (pd', (gi, (region, r))) -> `Install (pd', gi, region, r))
               (pair (int_bound 2)
                  (pair (int_bound 2) (pair (int_bound 7) (int_bound 7))));
             (* invalidate: pd, va page *)
             map
               (fun (pd', page) -> `Invalidate (pd', page))
               (pair (int_bound 2) (int_bound 63));
             (* lookup: pd, va page *)
             map
               (fun (pd', page) -> `Lookup (pd', page))
               (pair (int_bound 2) (int_bound 63));
           ]))
  in
  QCheck2.Test.make ~name:"multi-grain PLB matches reference model" ~count:200
    gen (fun ops ->
      let p = Plb.create ~shifts ~sets:1 ~ways:2048 () in
      (* model: (pd, shift, pn) -> rights *)
      let model : (int * int * int, Rights.t) Hashtbl.t = Hashtbl.create 64 in
      let model_lookup pd' va =
        let rec go = function
          | [] -> None
          | shift :: rest -> begin
              match Hashtbl.find_opt model (pd', shift, va lsr shift) with
              | Some r -> Some r
              | None -> go rest
            end
        in
        go shifts
      in
      List.for_all
        (fun op ->
          match op with
          | `Install (pd', gi, region, r) ->
              let shift = List.nth shifts gi in
              let va = region lsl shift in
              let rights = Rights.of_int r in
              Plb.install p ~pd:(pd pd') ~va ~shift rights;
              Hashtbl.replace model (pd', shift, region) rights;
              true
          | `Invalidate (pd', page) ->
              let va = page lsl 12 in
              ignore (Plb.invalidate p ~pd:(pd pd') ~va);
              List.iter
                (fun shift -> Hashtbl.remove model (pd', shift, va lsr shift))
                shifts;
              true
          | `Lookup (pd', page) ->
              let va = (page lsl 12) lor 0x123 in
              Plb.lookup p ~pd:(pd pd') ~va = model_lookup pd' va)
        ops)

(* -- lockstep vs the boxed reference under eviction ------------------

   The multi-grain model above has room for every entry. This one drives
   a small fully associative PLB (one set, so placement does not depend
   on the entry hash) op by op against Assoc_cache, the boxed reference
   cache, under each replacement policy: lookups, hit/miss counts,
   sweep results and the resident entries must agree after every op. *)

module Ref = Assoc_cache.Make (struct
  type t = int * int * int (* pd, shift, protection page number *)

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type lockstep_op =
  | Install of int * int * int * int (* pd, grain index, page, rights *)
  | Lookup of int * int (* pd, page *)
  | Update of int * int * int (* pd, page, rights *)
  | Invalidate of int * int
  | Purge_domain of int
  | Revoke_write (* update_matching: drop write rights everywhere *)
  | Flush

let lockstep_shifts = [ 12; 16 ]

let print_lockstep_op = function
  | Install (d, g, page, r) -> Printf.sprintf "Install(%d,%d,%d,%d)" d g page r
  | Lookup (d, page) -> Printf.sprintf "Lookup(%d,%d)" d page
  | Update (d, page, r) -> Printf.sprintf "Update(%d,%d,%d)" d page r
  | Invalidate (d, page) -> Printf.sprintf "Invalidate(%d,%d)" d page
  | Purge_domain d -> Printf.sprintf "Purge_domain(%d)" d
  | Revoke_write -> "Revoke_write"
  | Flush -> "Flush"

let lockstep_op_gen =
  let open QCheck2.Gen in
  let d = int_range 1 3 and page = int_bound 31 and r = int_bound 7 in
  frequency
    [
      ( 4,
        map
          (fun (d, (g, (page, r))) -> Install (d, g, page, r))
          (pair d (pair (int_bound 1) (pair page r))) );
      (5, map2 (fun d page -> Lookup (d, page)) d page);
      (2, map3 (fun d page r -> Update (d, page, r)) d page r);
      (2, map2 (fun d page -> Invalidate (d, page)) d page);
      (1, map (fun d -> Purge_domain d) d);
      (1, return Revoke_write);
      (1, return Flush);
    ]

(* the documented multi-grain semantics, over the reference cache *)
let ref_lookup m d va =
  match
    List.find_opt (fun s -> Ref.mem m (d, s, va lsr s)) lockstep_shifts
  with
  | Some s -> Ref.find m (d, s, va lsr s)
  | None ->
      (* one counted miss per access *)
      let s = List.hd lockstep_shifts in
      Ref.find m (d, s, va lsr s)

let revoke_write r = Rights.remove r Rights.w

let plb_lockstep_step p m op =
  let va page = page lsl 12 in
  match op with
  | Install (d, g, page, r) ->
      let shift = List.nth lockstep_shifts g in
      Plb.install p ~pd:(pd d) ~va:(va page) ~shift (Rights.of_int r);
      ignore (Ref.insert m (d, shift, va page lsr shift) (Rights.of_int r));
      true
  | Lookup (d, page) ->
      let va = va page lor 0x123 in
      Plb.lookup p ~pd:(pd d) ~va = ref_lookup m d va
  | Update (d, page, r) ->
      let r = Rights.of_int r in
      Plb.update_rights p ~pd:(pd d) ~va:(va page) r
      = List.exists
          (fun s -> Ref.update m (d, s, va page lsr s) (fun _ -> r))
          lockstep_shifts
  | Invalidate (d, page) ->
      Plb.invalidate p ~pd:(pd d) ~va:(va page)
      = List.fold_left
          (fun any s -> Ref.remove m (d, s, va page lsr s) || any)
          false lockstep_shifts
  | Purge_domain d ->
      Plb.purge_matching p (fun pd' _ _ -> Pd.to_int pd' = d)
      = Ref.purge m (fun (d', _, _) _ -> d' = d)
  | Revoke_write ->
      let changed =
        Ref.fold
          (fun k r acc ->
            if Rights.equal (revoke_write r) r then acc else k :: acc)
          m []
      in
      let inspected = Ref.length m in
      List.iter (fun k -> ignore (Ref.update m k revoke_write)) changed;
      Plb.update_matching p (fun _ _ r -> Some (revoke_write r))
      = (inspected, List.length changed)
  | Flush -> Plb.flush p = Ref.clear m

let plb_contents p =
  let acc = ref [] in
  Plb.iter
    (fun pd' va shift r ->
      acc := (Pd.to_int pd', shift, va lsr shift, r) :: !acc)
    p;
  List.sort compare !acc

let ref_contents m =
  List.sort compare
    (Ref.fold (fun (d, s, pn) r acc -> (d, s, pn, r) :: acc) m [])

let prop_lockstep_reference =
  QCheck2.Test.make ~count:200
    ~name:"PLB lockstep vs reference under eviction, all policies"
    ~print:(fun (policy, ops) ->
      Replacement.to_string policy ^ ": "
      ^ String.concat " " (List.map print_lockstep_op ops))
    QCheck2.Gen.(
      pair
        (oneofl Replacement.[ Lru; Fifo; Random ])
        (list_size (int_range 1 120) lockstep_op_gen))
    (fun (policy, ops) ->
      let p = Plb.create ~policy ~shifts:lockstep_shifts ~sets:1 ~ways:6 () in
      let m = Ref.create ~policy ~sets:1 ~ways:6 () in
      List.for_all
        (fun op ->
          plb_lockstep_step p m op
          && Plb.hits p = Ref.hits m
          && Plb.misses p = Ref.misses m
          && Plb.length p = Ref.length m
          && plb_contents p = ref_contents m)
        ops)

let suite =
  [
    Alcotest.test_case "basic lookup" `Quick test_basic;
    Qprop.to_alcotest prop_multigrain_model;
    Qprop.to_alcotest prop_lockstep_reference;
    Alcotest.test_case "per-domain duplication" `Quick test_per_domain_entries;
    Alcotest.test_case "update rights in place" `Quick test_update_rights;
    Alcotest.test_case "purge_matching (detach)" `Quick test_purge_matching;
    Alcotest.test_case "update_matching (sweep)" `Quick test_update_matching;
    Alcotest.test_case "multiple protection page sizes" `Quick test_multi_grain;
    Alcotest.test_case "unconfigured shift rejected" `Quick
      test_unconfigured_shift;
    Alcotest.test_case "hit/miss stats" `Quick test_stats;
  ]
