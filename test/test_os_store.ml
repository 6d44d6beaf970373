(* Lockstep of the flat int-lane OS tables against the Hashtbl/Map models
   in Ref_os_tables, under the kind of attach/detach/revoke churn the
   sharded simulation applies, plus the integer-geometry boundary
   regressions from the scale work (49-bit vpns, tens of millions of
   frames). *)

open Sasos
open Sasos.Os
open Sasos.Mem
module Model = Ref_os_tables

let geom = Geometry.default

(* --- inverted page table: Flat lanes vs Hashtbl model ---------------- *)

(* vpn universe mixing small pages with the top of the 49-bit vpn space *)
let vpns =
  [| 0; 1; 2; 17; 4095; 1 lsl 20; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 49) - 3 |]

let ipt_states ref_t packed_t ctx =
  Alcotest.(check int)
    (ctx ^ ": mapped_count")
    (Model.Ipt.mapped_count ref_t)
    (Inverted_page_table.mapped_count packed_t);
  Array.iter
    (fun vpn ->
      Alcotest.(check int)
        (Printf.sprintf "%s: find_bits %d" ctx vpn)
        (Model.Ipt.find_bits ref_t ~vpn)
        (Inverted_page_table.find_bits packed_t ~vpn))
    vpns

let apply_ipt ref_t packed_t op =
  let vpn = vpns.(op lsr 2 mod Array.length vpns) in
  let pfn = op lsr 6 land 0xFFFF in
  match op land 3 with
  | 0 ->
      if not (Model.Ipt.is_mapped ref_t ~vpn) then begin
        Model.Ipt.map ref_t ~vpn ~pfn;
        Inverted_page_table.map packed_t ~vpn ~pfn
      end
  | 1 ->
      Alcotest.(check int) "unmap_bits"
        (Model.Ipt.unmap_bits ref_t ~vpn)
        (Inverted_page_table.unmap_bits packed_t ~vpn)
  | 2 ->
      Model.Ipt.set_dirty ref_t ~vpn;
      Inverted_page_table.set_dirty packed_t ~vpn
  | _ ->
      Model.Ipt.set_referenced ref_t ~vpn;
      Inverted_page_table.set_referenced packed_t ~vpn

let prop_ipt_lockstep =
  QCheck.Test.make ~count:120 ~name:"inverted page table packed lockstep"
    QCheck.(list_of_size Gen.(int_range 0 300) (int_bound ((1 lsl 22) - 1)))
    (fun ops ->
      let ref_t = Model.Ipt.create () in
      let packed_t = Inverted_page_table.create () in
      List.iter (apply_ipt ref_t packed_t) ops;
      ipt_states ref_t packed_t "after ops";
      true)

(* --- backing store (flat lanes since the scale work) vs a model ------ *)

let test_backing_store_model () =
  let bs = Backing_store.create () in
  let model = Hashtbl.create 64 in
  for round = 0 to 5_000 do
    let vpn = vpns.(round mod Array.length vpns) in
    match round mod 3 with
    | 0 ->
        let bytes = (round land 7) * 512 in
        Backing_store.write bs ~vpn ~bytes_used:bytes;
        Hashtbl.replace model vpn bytes
    | 1 ->
        Backing_store.drop bs ~vpn;
        Hashtbl.remove model vpn
    | _ ->
        Alcotest.(check (option int))
          "read" (Hashtbl.find_opt model vpn)
          (Backing_store.read bs ~vpn)
  done;
  Alcotest.(check int) "pages" (Hashtbl.length model) (Backing_store.pages bs);
  Alcotest.(check int) "bytes"
    (Hashtbl.fold (fun _ b acc -> acc + b) model 0)
    (Backing_store.bytes_used bs);
  Array.iter
    (fun vpn ->
      Alcotest.(check bool) "resident" (Hashtbl.mem model vpn)
        (Backing_store.resident bs ~vpn))
    vpns

(* --- segment table: sorted lanes vs Map model ------------------------- *)

let seg_states ref_t packed_t probes ctx =
  Alcotest.(check int)
    (ctx ^ ": live_count")
    (Model.Segments.live_count ref_t)
    (Segment_table.live_count packed_t);
  List.iter
    (fun va ->
      Alcotest.(check int)
        (Printf.sprintf "%s: find_id_by_va 0x%x" ctx va)
        (Model.Segments.find_id_by_va ref_t va)
        (Segment_table.find_id_by_va packed_t va))
    probes

let prop_segment_lockstep =
  QCheck.Test.make ~count:60 ~name:"segment table packed lockstep"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 1023))
    (fun ops ->
      let ref_t = Model.Segments.create geom in
      let packed_t = Segment_table.create geom in
      let segs = ref [] in
      let probes = ref [ 0; 1; max_int / 2 ] in
      List.iter
        (fun op ->
          let pages = 1 + (op land 7) in
          if op land 8 = 0 || !segs = [] then begin
            let a = Model.Segments.allocate ref_t ~pages in
            let b = Segment_table.allocate packed_t ~pages () in
            Alcotest.(check int)
              "same id"
              (Segment.id_to_int a.Segment.id)
              (Segment.id_to_int b.Segment.id);
            Alcotest.(check int) "same base" a.Segment.base b.Segment.base;
            segs := a :: !segs;
            probes :=
              a.Segment.base :: (a.Segment.base + 1)
              :: (Segment.limit a - 1)
              :: Segment.limit a (* guard page *) :: !probes
          end
          else begin
            let n = List.length !segs in
            let victim = List.nth !segs (op lsr 4 mod n) in
            segs := List.filter (fun s -> s != victim) !segs;
            Model.Segments.destroy ref_t victim.Segment.id;
            ignore (Segment_table.destroy packed_t victim.Segment.id)
          end)
        ops;
      seg_states ref_t packed_t !probes "after ops";
      true)

(* --- capability registry: check lanes vs Hashtbl model --------------- *)

let test_cap_registry_lockstep () =
  let segs = Segment_table.create geom in
  let ref_r = Model.Caps.create ~seed:97 in
  let packed_r = Cap_registry.create ~seed:97 () in
  let caps = ref [] in
  for round = 0 to 400 do
    match round mod 4 with
    | 0 ->
        let seg = Segment_table.allocate segs ~pages:2 () in
        let a = Model.Caps.mint ref_r seg Rights.rw in
        let b = Cap_registry.mint packed_r seg Rights.rw in
        Alcotest.(check bool) "same capability" true (a = b);
        caps := a :: !caps
    | 1 when !caps <> [] ->
        let c = List.nth !caps (round lsr 2 mod List.length !caps) in
        Alcotest.(check bool) "validate agrees"
          (Model.Caps.validate ref_r c)
          (Cap_registry.validate packed_r c)
    | 2 when !caps <> [] ->
        let c = List.nth !caps (round lsr 2 mod List.length !caps) in
        let a = Model.Caps.restrict ref_r c Rights.r in
        let b = Cap_registry.restrict packed_r c Rights.r in
        Alcotest.(check bool) "restrict agrees" true (a = b);
        (match a with Ok c' -> caps := c' :: !caps | Error _ -> ())
    | 3 when !caps <> [] ->
        let c = List.nth !caps (round lsr 2 mod List.length !caps) in
        Model.Caps.revoke ref_r c;
        Cap_registry.revoke packed_r c
    | _ -> ()
  done;
  List.iter
    (fun c ->
      Alcotest.(check bool) "final validate agrees"
        (Model.Caps.validate ref_r c)
        (Cap_registry.validate packed_r c))
    !caps

(* --- Os_core protection store: flat lanes vs Hashtbl model ----------- *)

(* One Os_core and one store model, driven by the same random sequence of
   protection-truth operations over a few segments. After every op the two
   must answer every query identically, for every created domain (live or
   destroyed), every segment and a probe set that includes each segment's
   guard page. *)

type store_op =
  | New_domain
  | Destroy_domain of int
  | Set_attachment of int * int * int (* pd index, segment, rights *)
  | Remove_attachment of int * int
  | Set_override of int * int * int * int (* pd index, segment, unit, rights *)
  | Clear_override of int * int * int

let print_store_op = function
  | New_domain -> "New_domain"
  | Destroy_domain d -> Printf.sprintf "Destroy_domain %d" d
  | Set_attachment (d, s, r) -> Printf.sprintf "Set_attachment (%d,%d,%d)" d s r
  | Remove_attachment (d, s) -> Printf.sprintf "Remove_attachment (%d,%d)" d s
  | Set_override (d, s, u, r) ->
      Printf.sprintf "Set_override (%d,%d,%d,%d)" d s u r
  | Clear_override (d, s, u) -> Printf.sprintf "Clear_override (%d,%d,%d)" d s u

let store_op_gen =
  let open QCheck2.Gen in
  let d = int_bound 7 and s = int_bound 2 and r = int_bound 7 in
  (* unit indexes run past the smaller segments' ends, into their guard
     pages and the next segment *)
  let u = int_bound 8 in
  frequency
    [
      (3, return New_domain);
      (1, map (fun d -> Destroy_domain d) d);
      (4, map3 (fun d s r -> Set_attachment (d, s, r)) d s r);
      (2, map2 (fun d s -> Remove_attachment (d, s)) d s);
      (5, map4 (fun d s u r -> Set_override (d, s, u, r)) d s u r);
      (3, map3 (fun d s u -> Clear_override (d, s, u)) d s u);
    ]

let store_lockstep config ops =
  let module S = Model.Store in
  let a = S.create config in
  let b = Os_core.create config in
  let alloc pages =
    let sa = Model.Segments.allocate a.S.segments ~pages in
    let sb = Segment_table.allocate b.Os_core.segments ~pages () in
    assert (sa.Segment.base = sb.Segment.base);
    sa
  in
  let segs = [| alloc 2; alloc 4; alloc 1 |] in
  let prot = 1 lsl config.Config.geom.Geometry.prot_shift in
  (* every protection unit of every segment, plus its guard page *)
  let probes =
    Array.to_list segs
    |> List.concat_map (fun seg ->
           List.init
             ((Segment.limit seg - seg.Segment.base) / prot + 1)
             (fun i -> seg.Segment.base + (i * prot)))
  in
  let pds = ref [||] in
  let pd i = !pds.(i mod Array.length !pds) in
  let unit_va s u = segs.(s).Segment.base + (u * prot) in
  let rights_list l =
    List.map (fun (p, r) -> (Pd.to_int p, Rights.to_int r)) l
  in
  let model_rights_list l = List.map (fun (p, r) -> (p, Rights.to_int r)) l in
  let same what x y =
    if x <> y then QCheck2.Test.fail_reportf "%s: model and os_core differ" what
  in
  let compare_all step =
    let ctx q = Printf.sprintf "after op %d, %s" step q in
    List.iter
      (fun va ->
        same
          (ctx (Printf.sprintf "page_has_override 0x%x" va))
          (S.page_has_override a va)
          (Os_core.page_has_override b va);
        same
          (ctx (Printf.sprintf "domains_with_rights 0x%x" va))
          (model_rights_list (S.domains_with_rights a va))
          (rights_list (Os_core.domains_with_rights b va)))
      probes;
    Array.iter
      (fun p ->
        let pi = Pd.to_int p in
        List.iter
          (fun va ->
            same
              (ctx (Printf.sprintf "rights pd%d 0x%x" pi va))
              (Rights.to_int (S.rights a pi va))
              (Rights.to_int (Os_core.rights b p va)))
          probes;
        Array.iter
          (fun seg ->
            let q what =
              ctx (Printf.sprintf "%s pd%d seg 0x%x" what pi seg.Segment.base)
            in
            same (q "attachment")
              (Option.map Rights.to_int (S.attachment a pi seg))
              (Option.map Rights.to_int (Os_core.attachment b p seg));
            same (q "has_overrides")
              (S.has_overrides a pi seg)
              (Os_core.has_overrides b p seg);
            same
              (q "override_units_in_segment")
              (S.override_units_in_segment a pi seg)
              (Os_core.override_units_in_segment b p seg))
          segs)
      !pds
  in
  let apply op =
    (* every op but New_domain needs a domain to act on *)
    match if Array.length !pds = 0 then New_domain else op with
    | New_domain ->
        let pa = S.new_domain a and pb = Os_core.new_domain b in
        same "new_domain" pa (Pd.to_int pb);
        pds := Array.append !pds [| pb |]
    | Destroy_domain d ->
        S.destroy_domain a (Pd.to_int (pd d));
        Os_core.destroy_domain b (pd d)
    | Set_attachment (d, s, r) ->
        S.set_attachment a (Pd.to_int (pd d)) segs.(s) (Rights.of_int r);
        Os_core.set_attachment b (pd d) segs.(s) (Rights.of_int r)
    | Remove_attachment (d, s) ->
        S.remove_attachment a (Pd.to_int (pd d)) segs.(s);
        Os_core.remove_attachment b (pd d) segs.(s)
    | Set_override (d, s, u, r) ->
        S.set_override a (Pd.to_int (pd d)) (unit_va s u) (Rights.of_int r);
        Os_core.set_override b (pd d) (unit_va s u) (Rights.of_int r)
    | Clear_override (d, s, u) ->
        S.clear_override a (Pd.to_int (pd d)) (unit_va s u);
        Os_core.clear_override b (pd d) (unit_va s u)
  in
  List.iteri
    (fun step op ->
      apply op;
      compare_all step)
    ops;
  true

let prop_store_lockstep name config =
  QCheck2.Test.make ~count:150 ~name
    ~print:QCheck2.Print.(list print_store_op)
    QCheck2.Gen.(list_size (int_range 1 60) store_op_gen)
    (store_lockstep config)

(* --- geometry boundary regressions ----------------------------------- *)

let test_frames_exceed_pa_space () =
  (* 2^20 frames of 2^12 bytes need 32 physical bits; a 24-bit space
     must be rejected, not silently wrapped in the pfn lane *)
  let small = Geometry.v ~pa_bits:24 () in
  let raised =
    try
      ignore (Config.v ~geom:small ~frames:(1 lsl 20) ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "frames > 2^pa_bits rejected" true raised;
  (* exactly filling the space is fine *)
  ignore (Config.v ~geom:small ~frames:(1 lsl 12) ())

let test_ipt_49_bit_vpn () =
  let t = Inverted_page_table.create () in
  let vpn = (1 lsl 49) - 1 in
  let near = vpn - (1 lsl 30) (* same low-30-bit lane, different high bits *) in
  Inverted_page_table.map t ~vpn ~pfn:123;
  Alcotest.(check bool) "top vpn mapped" true
    (Inverted_page_table.is_mapped t ~vpn);
  Alcotest.(check bool) "lane-aliased vpn distinct" false
    (Inverted_page_table.is_mapped t ~vpn:near);
  Inverted_page_table.set_dirty t ~vpn;
  let bits = Inverted_page_table.find_bits t ~vpn in
  Alcotest.(check int) "pfn intact" 123 (Inverted_page_table.bits_pfn bits);
  Alcotest.(check bool) "dirty" true (Inverted_page_table.bits_dirty bits)

let suite =
  [
    Qprop.to_alcotest prop_ipt_lockstep;
    Alcotest.test_case "backing store matches model" `Quick
      test_backing_store_model;
    Qprop.to_alcotest prop_segment_lockstep;
    Qprop.to_alcotest
      (prop_store_lockstep "os_core store lockstep, 4 KB units" Config.default);
    Qprop.to_alcotest
      (prop_store_lockstep "os_core store lockstep, 1 KB units"
         (Config.v ~geom:(Geometry.v ~prot_shift:10 ()) ()));
    Alcotest.test_case "capability registry packed lockstep" `Quick
      test_cap_registry_lockstep;
    Alcotest.test_case "frames beyond physical space rejected" `Quick
      test_frames_exceed_pa_space;
    Alcotest.test_case "49-bit vpn keeps full precision" `Quick
      test_ipt_49_bit_vpn;
  ]
