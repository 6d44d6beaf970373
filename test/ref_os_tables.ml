(* Boxed Hashtbl/Map models of the four OS tables that run on flat int
   lanes in lib/: the inverted page table, the segment table, the
   capability registry's check index and Os_core's protection store.
   test/test_os_store.ml drives each model in lockstep with the real
   table, op by op. The models favour the obvious representation over
   speed: tuple keys, option returns and linear scans. *)

open Sasos
open Sasos.Os

(* vpn -> mapping record; [find_bits] encodes it the way the real table
   packs its entries. *)
module Ipt = struct
  type mapping = { pfn : int; mutable dirty : bool; mutable referenced : bool }
  type t = (int, mapping) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let map t ~vpn ~pfn =
    if Hashtbl.mem t vpn then
      invalid_arg "Inverted_page_table.map: page already mapped";
    Hashtbl.replace t vpn { pfn; dirty = false; referenced = false }

  let find_bits t ~vpn =
    match Hashtbl.find_opt t vpn with
    | None -> -1
    | Some m ->
        (m.pfn lsl 2)
        lor (if m.referenced then 2 else 0)
        lor if m.dirty then 1 else 0

  let unmap_bits t ~vpn =
    let bits = find_bits t ~vpn in
    Hashtbl.remove t vpn;
    bits

  let set_dirty t ~vpn =
    Option.iter (fun m -> m.dirty <- true) (Hashtbl.find_opt t vpn)

  let set_referenced t ~vpn =
    Option.iter (fun m -> m.referenced <- true) (Hashtbl.find_opt t vpn)

  let is_mapped t ~vpn = Hashtbl.mem t vpn
  let mapped_count = Hashtbl.length
end

(* Live segments in a Map keyed by base. Allocation follows the real
   table's layout: page-aligned bases from 16 MB up, one guard page after
   each segment, ids from 1. *)
module Segments = struct
  module Base_map = Map.Make (Int)

  type t = {
    page_shift : int;
    mutable next_base : int;
    mutable next_id : int;
    mutable by_base : Segment.t Base_map.t;
  }

  let create (geom : Geometry.t) =
    {
      page_shift = geom.Geometry.page_shift;
      next_base = 0x100_0000;
      next_id = 1;
      by_base = Base_map.empty;
    }

  let allocate t ~pages =
    let id = t.next_id and base = t.next_base in
    t.next_id <- id + 1;
    t.next_base <- base + ((pages + 1) lsl t.page_shift);
    let seg =
      {
        Segment.id = Segment.id_of_int id;
        name = Printf.sprintf "seg%d" id;
        base;
        pages;
        page_shift = t.page_shift;
      }
    in
    t.by_base <- Base_map.add base seg t.by_base;
    seg

  let destroy t id =
    t.by_base <-
      Base_map.filter (fun _ s -> not (Segment.id_equal s.Segment.id id)) t.by_base

  let find_id_by_va t va =
    match Base_map.find_last_opt (fun base -> base <= va) t.by_base with
    | Some (_, seg) when Segment.contains seg va -> Segment.id_to_int seg.Segment.id
    | Some _ | None -> -1

  let live_count t = Base_map.cardinal t.by_base
end

(* The capability registry's check index: 64-bit check -> (segment,
   rights), drawing checks from the same seeded generator. *)
module Caps = struct
  type t = {
    rng : Util.Prng.t;
    checks : (int64, Segment.id * Rights.t) Hashtbl.t;
  }

  let create ~seed = { rng = Util.Prng.create ~seed; checks = Hashtbl.create 64 }

  let rec fresh t =
    let c = Util.Prng.bits64 t.rng in
    if Hashtbl.mem t.checks c then fresh t else c

  let issue t segment rights =
    let check = fresh t in
    Hashtbl.replace t.checks check (segment, rights);
    Capability.make ~segment ~rights ~check

  let mint t (seg : Segment.t) rights = issue t seg.Segment.id rights

  let validate t cap =
    match Hashtbl.find_opt t.checks (Capability.check cap) with
    | Some (segment, rights) ->
        Segment.id_equal segment (Capability.segment cap)
        && Rights.equal rights (Capability.rights cap)
    | None -> false

  let restrict t cap rights =
    if not (validate t cap) then Error "invalid capability"
    else if not (Rights.subset rights (Capability.rights cap)) then
      Error "rights exceed the capability's bound"
    else Ok (issue t (Capability.segment cap) rights)

  let revoke t cap = Hashtbl.remove t.checks (Capability.check cap)
end

(* Os_core's protection truth over tuple-keyed Hashtbls, with domains as
   plain ints and segments from a {!Segments} model. *)
module Store = struct
  type t = {
    prot_shift : int;
    segments : Segments.t;
    mutable domains : int list; (* live, oldest first *)
    mutable next_pd : int;
    attachments : (int * int, Rights.t) Hashtbl.t; (* (pd, seg id) *)
    overrides : (int * int, Rights.t) Hashtbl.t; (* (pd, prot unit) *)
    override_counts : (int * int, int) Hashtbl.t; (* (pd, seg id) *)
  }

  let create (config : Config.t) =
    {
      prot_shift = config.Config.geom.Geometry.prot_shift;
      segments = Segments.create config.Config.geom;
      domains = [];
      next_pd = 1;
      attachments = Hashtbl.create 16;
      overrides = Hashtbl.create 16;
      override_counts = Hashtbl.create 16;
    }

  let new_domain t =
    let pd = t.next_pd in
    t.next_pd <- pd + 1;
    t.domains <- t.domains @ [ pd ];
    pd

  let destroy_domain t pd =
    t.domains <- List.filter (fun d -> d <> pd) t.domains;
    let drop tbl =
      Hashtbl.fold (fun (d, k) _ acc -> if d = pd then (d, k) :: acc else acc) tbl []
      |> List.iter (Hashtbl.remove tbl)
    in
    drop t.attachments;
    drop t.overrides;
    drop t.override_counts

  let unit_of t va = va lsr t.prot_shift
  let sid (seg : Segment.t) = Segment.id_to_int seg.Segment.id

  let units t (seg : Segment.t) =
    let lo = unit_of t seg.Segment.base in
    List.init (unit_of t (Segment.limit seg - 1) - lo + 1) (fun i -> lo + i)

  let rights t pd va =
    match Hashtbl.find_opt t.overrides (pd, unit_of t va) with
    | Some r -> r
    | None -> (
        match Segments.find_id_by_va t.segments va with
        | -1 -> Rights.none
        | s ->
            Option.value (Hashtbl.find_opt t.attachments (pd, s))
              ~default:Rights.none)

  let set_attachment t pd seg r = Hashtbl.replace t.attachments (pd, sid seg) r
  let attachment t pd seg = Hashtbl.find_opt t.attachments (pd, sid seg)

  let remove_attachment t pd seg =
    Hashtbl.remove t.attachments (pd, sid seg);
    List.iter (fun u -> Hashtbl.remove t.overrides (pd, u)) (units t seg);
    Hashtbl.remove t.override_counts (pd, sid seg)

  let bump_count t pd va delta =
    match Segments.find_id_by_va t.segments va with
    | -1 -> ()
    | s ->
        let key = (pd, s) in
        let c =
          Option.value (Hashtbl.find_opt t.override_counts key) ~default:0
          + delta
        in
        if c <= 0 then Hashtbl.remove t.override_counts key
        else Hashtbl.replace t.override_counts key c

  let set_override t pd va r =
    let key = (pd, unit_of t va) in
    if not (Hashtbl.mem t.overrides key) then bump_count t pd va 1;
    Hashtbl.replace t.overrides key r

  let clear_override t pd va =
    let key = (pd, unit_of t va) in
    if Hashtbl.mem t.overrides key then begin
      Hashtbl.remove t.overrides key;
      bump_count t pd va (-1)
    end

  let has_overrides t pd seg = Hashtbl.mem t.override_counts (pd, sid seg)

  let override_units_in_segment t pd seg =
    if not (has_overrides t pd seg) then []
    else List.filter (fun u -> Hashtbl.mem t.overrides (pd, u)) (units t seg)

  let page_has_override t va =
    List.exists (fun pd -> Hashtbl.mem t.overrides (pd, unit_of t va)) t.domains

  let domains_with_rights t va =
    List.filter_map
      (fun pd ->
        let r = rights t pd va in
        if Rights.equal r Rights.none then None else Some (pd, r))
      t.domains
end
