open Sasos_addr

(* Live segments as parallel flat int arrays sorted by base.  Bases are
   allocated monotonically (addresses never reused), so an append keeps the
   sort invariant for free and [find_by_va] is a binary search that touches
   only int lanes — no Map nodes, no closure, no option — which is what the
   million-segment shard geometries need.  Destruction shifts the tail left
   (rare, and segment count per shard is bounded). *)
type t = {
  geom : Geometry.t;
  mutable next_base : Va.t;
  mutable next_id : int;
  mutable bases : int array;
  mutable limits : int array; (* base + size, exclusive *)
  mutable ids : int array;
  mutable n : int;
  mutable by_id : Segment.t option array; (* dense, indexed by id *)
}

(* Leave low space clear (null page etc.) and start segments at 16 MB. *)
let initial_base = 0x100_0000

(* Keep simulated addresses within OCaml's 62 usable bits. *)
let address_limit = 1 lsl 61

let create geom =
  {
    geom;
    next_base = initial_base;
    next_id = 1;
    bases = Array.make 64 max_int;
    limits = Array.make 64 max_int;
    ids = Array.make 64 (-1);
    n = 0;
    by_id = Array.make 64 None;
  }

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
        else if s >= 61 then
          (* [1 lsl s] is unspecified from 63 up, and no base aligned to
             2^61 or more lies below [address_limit] *)
          invalid_arg "Segment_table.allocate: align_shift >= 61"
        else 1 lsl s
  in
  let base = Sasos_util.Bits.round_up t.next_base align in
  (* checked before shifting: [pages lsl page_shift] wraps negative for
     huge counts and would slip under the limit test below *)
  if pages > (address_limit - base) asr page_shift then
    invalid_arg "Segment_table.allocate: pages exceed the address space";
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
  if t.n = Array.length t.bases then begin
    t.bases <- grow_lane t.bases max_int;
    t.limits <- grow_lane t.limits max_int;
    t.ids <- grow_lane t.ids (-1)
  end;
  t.bases.(t.n) <- base;
  t.limits.(t.n) <- base + size;
  t.ids.(t.n) <- id;
  t.n <- t.n + 1;
  if id >= Array.length t.by_id then begin
    let b = Array.make (max (Array.length t.by_id * 2) (id + 1)) None in
    Array.blit t.by_id 0 b 0 (Array.length t.by_id);
    t.by_id <- b
  end;
  t.by_id.(id) <- Some seg;
  seg

(* Rightmost index with bases.(i) <= va, or -1.  Monomorphized binary
   search over the int lane; zero allocation. *)
let rec bsearch (bases : int array) va lo hi =
  if lo > hi then hi
  else
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get bases mid <= va then bsearch bases va (mid + 1) hi
    else bsearch bases va lo (mid - 1)

let find t id =
  let id = Segment.id_to_int id in
  if id >= 0 && id < Array.length t.by_id then t.by_id.(id) else None

let destroy t id =
  match find t id with
  | None -> raise Not_found
  | Some seg ->
      let id = Segment.id_to_int id in
      t.by_id.(id) <- None;
      let i = bsearch t.bases seg.Segment.base 0 (t.n - 1) in
      assert (i >= 0 && t.ids.(i) = id);
      let tail = t.n - i - 1 in
      Array.blit t.bases (i + 1) t.bases i tail;
      Array.blit t.limits (i + 1) t.limits i tail;
      Array.blit t.ids (i + 1) t.ids i tail;
      t.n <- t.n - 1;
      t.bases.(t.n) <- max_int;
      t.limits.(t.n) <- max_int;
      t.ids.(t.n) <- -1;
      seg

let find_id_by_va t va =
  let i = bsearch t.bases va 0 (t.n - 1) in
  if i >= 0 && va < Array.unsafe_get t.limits i then Array.unsafe_get t.ids i
  else -1

let find_by_va t va =
  match find_id_by_va t va with -1 -> None | id -> t.by_id.(id)

let live_count t = t.n

let iter f t =
  for i = 0 to t.n - 1 do
    match t.by_id.(t.ids.(i)) with Some s -> f s | None -> assert false
  done
