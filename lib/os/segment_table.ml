open Sasos_addr

module Base_map = Map.Make (Int)

(* Packed representation: live segments as parallel flat int arrays sorted
   by base.  Bases are allocated monotonically (addresses never reused), so
   an append keeps the sort invariant for free and [find_by_va] is a
   binary search that touches only int lanes — no Map nodes, no closure,
   no option — which is what the million-segment shard geometries need.
   Destruction shifts the tail left (rare, and segment count per shard is
   bounded). *)
type packed = {
  mutable bases : int array;
  mutable limits : int array; (* base + size, exclusive *)
  mutable ids : int array;
  mutable n : int;
  mutable by_id_arr : Segment.t option array; (* dense, indexed by id *)
}

type repr =
  | Map_repr of {
      mutable by_base : Segment.t Base_map.t;
      by_id : (int, Segment.t) Hashtbl.t;
    }
  | Flat_repr of packed

type t = {
  geom : Geometry.t;
  repr : repr;
  mutable next_base : Va.t;
  mutable next_id : int;
}

(* Leave low space clear (null page etc.) and start segments at 16 MB. *)
let initial_base = 0x100_0000

(* Keep simulated addresses within OCaml's 62 usable bits. *)
let address_limit = 1 lsl 61

let create ?(packed = Sasos_hw.Packed_cache.(default_backend () = Packed))
    geom =
  let repr =
    if packed then
      Flat_repr
        {
          bases = Array.make 64 max_int;
          limits = Array.make 64 max_int;
          ids = Array.make 64 (-1);
          n = 0;
          by_id_arr = Array.make 64 None;
        }
    else Map_repr { by_base = Base_map.empty; by_id = Hashtbl.create 256 }
  in
  { geom; repr; next_base = initial_base; next_id = 1 }

let grow_lane a fill =
  let b = Array.make (Array.length a * 2) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let allocate t ?(name = "") ?align_shift ~pages () =
  if pages <= 0 then invalid_arg "Segment_table.allocate: pages <= 0";
  let page_shift = t.geom.Geometry.page_shift in
  let align = match align_shift with
    | None -> 1 lsl page_shift
    | Some s ->
        if s < page_shift then
          invalid_arg "Segment_table.allocate: align below page size"
        else 1 lsl s
  in
  let base = Sasos_util.Bits.round_up t.next_base align in
  let size = pages lsl page_shift in
  if base + size >= address_limit then
    invalid_arg "Segment_table.allocate: address space exhausted";
  let id = t.next_id in
  t.next_id <- id + 1;
  (* one guard page after the segment: off-by-one strays fault, and
     adjacent segments never share a protection page *)
  t.next_base <- base + size + (1 lsl page_shift);
  let name = if name = "" then Printf.sprintf "seg%d" id else name in
  let seg =
    { Segment.id = Segment.id_of_int id; name; base; pages; page_shift }
  in
  (match t.repr with
  | Map_repr m ->
      m.by_base <- Base_map.add base seg m.by_base;
      Hashtbl.replace m.by_id id seg
  | Flat_repr p ->
      if p.n = Array.length p.bases then begin
        p.bases <- grow_lane p.bases max_int;
        p.limits <- grow_lane p.limits max_int;
        p.ids <- grow_lane p.ids (-1)
      end;
      p.bases.(p.n) <- base;
      p.limits.(p.n) <- base + size;
      p.ids.(p.n) <- id;
      p.n <- p.n + 1;
      if id >= Array.length p.by_id_arr then begin
        let b =
          Array.make (max (Array.length p.by_id_arr * 2) (id + 1)) None
        in
        Array.blit p.by_id_arr 0 b 0 (Array.length p.by_id_arr);
        p.by_id_arr <- b
      end;
      p.by_id_arr.(id) <- Some seg);
  seg

(* Rightmost index with bases.(i) <= va, or -1.  Monomorphized binary
   search over the int lane; zero allocation. *)
let rec bsearch (bases : int array) va lo hi =
  if lo > hi then hi
  else
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get bases mid <= va then bsearch bases va (mid + 1) hi
    else bsearch bases va lo (mid - 1)

let destroy t id =
  let id = Segment.id_to_int id in
  match t.repr with
  | Map_repr m -> (
      match Hashtbl.find_opt m.by_id id with
      | None -> raise Not_found
      | Some seg ->
          Hashtbl.remove m.by_id id;
          m.by_base <- Base_map.remove seg.Segment.base m.by_base;
          seg)
  | Flat_repr p -> (
      let seg =
        if id >= 0 && id < Array.length p.by_id_arr then p.by_id_arr.(id)
        else None
      in
      match seg with
      | None -> raise Not_found
      | Some seg ->
          p.by_id_arr.(id) <- None;
          let i = bsearch p.bases seg.Segment.base 0 (p.n - 1) in
          assert (i >= 0 && p.ids.(i) = id);
          let tail = p.n - i - 1 in
          Array.blit p.bases (i + 1) p.bases i tail;
          Array.blit p.limits (i + 1) p.limits i tail;
          Array.blit p.ids (i + 1) p.ids i tail;
          p.n <- p.n - 1;
          p.bases.(p.n) <- max_int;
          p.limits.(p.n) <- max_int;
          p.ids.(p.n) <- -1;
          seg)

let find t id =
  let id = Segment.id_to_int id in
  match t.repr with
  | Map_repr m -> Hashtbl.find_opt m.by_id id
  | Flat_repr p ->
      if id >= 0 && id < Array.length p.by_id_arr then p.by_id_arr.(id)
      else None

let find_by_va t va =
  match t.repr with
  | Map_repr m -> (
      match Base_map.find_last_opt (fun base -> base <= va) m.by_base with
      | Some (_, seg) when Segment.contains seg va -> Some seg
      | Some _ | None -> None)
  | Flat_repr p ->
      let i = bsearch p.bases va 0 (p.n - 1) in
      if i >= 0 && va < p.limits.(i) then p.by_id_arr.(p.ids.(i)) else None

let find_id_by_va t va =
  match t.repr with
  | Map_repr _ -> (
      match find_by_va t va with
      | Some seg -> Segment.id_to_int seg.Segment.id
      | None -> -1)
  | Flat_repr p ->
      let i = bsearch p.bases va 0 (p.n - 1) in
      if i >= 0 && va < Array.unsafe_get p.limits i then
        Array.unsafe_get p.ids i
      else -1

let live_count t =
  match t.repr with
  | Map_repr m -> Hashtbl.length m.by_id
  | Flat_repr p -> p.n

let iter f t =
  match t.repr with
  | Map_repr m -> Base_map.iter (fun _ s -> f s) m.by_base
  | Flat_repr p ->
      for i = 0 to p.n - 1 do
        match p.by_id_arr.(p.ids.(i)) with
        | Some s -> f s
        | None -> assert false
      done
