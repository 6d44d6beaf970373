(* The Packed_cache API over the boxed reference model (Assoc_cache): the
   oracle test/test_packed_cache.ml drives in lockstep with the int lanes.
   Same contract as Packed_cache, call for call: payloads and k1 must be
   non-negative, [absent] (-1) is the miss sentinel, and the victim of the
   last [insert] stays readable through [last_eviction]. *)

open Sasos.Hw

(* The key record carries the caller's hash, so set placement is decided
   by exactly the value Packed_cache masks into a set index. *)
module Key = struct
  type t = { h : int; k1 : int; k2 : int }

  let equal a b = a.k1 = b.k1 && a.k2 = b.k2
  let hash k = k.h
end

module C = Assoc_cache.Make (Key)

type t = { rc : int C.t; mutable last : (int * int * int) option }

let absent = Packed_cache.absent

let create ?policy ?seed ~sets ~ways () =
  { rc = C.create ?policy ?seed ~sets ~ways (); last = None }

let key ~hash ~k1 ~k2 = { Key.h = hash; k1; k2 }
let or_absent = function Some v -> v | None -> absent
let length t = C.length t.rc
let find t ~hash ~k1 ~k2 = or_absent (C.find t.rc (key ~hash ~k1 ~k2))
let peek t ~hash ~k1 ~k2 = or_absent (C.peek t.rc (key ~hash ~k1 ~k2))
let mem t ~hash ~k1 ~k2 = C.mem t.rc (key ~hash ~k1 ~k2)

let insert t ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.insert: payload must be >= 0";
  if k1 < 0 then invalid_arg "Packed_cache.insert: key1 must be >= 0";
  t.last <-
    Option.map
      (fun (k, ov) -> (k.Key.k1, k.Key.k2, ov))
      (C.insert t.rc (key ~hash ~k1 ~k2) v)

let last_eviction t = t.last

let set_masked t ~hash ~k1 ~k2 ~mask ~bits =
  C.update t.rc (key ~hash ~k1 ~k2) (fun v -> (v land lnot mask) lor bits)

let set t ~hash ~k1 ~k2 v =
  if v < 0 then invalid_arg "Packed_cache.set: payload must be >= 0";
  set_masked t ~hash ~k1 ~k2 ~mask:(-1) ~bits:v

let remove t ~hash ~k1 ~k2 = C.remove t.rc (key ~hash ~k1 ~k2)
let purge t pred = C.purge t.rc (fun k v -> pred k.Key.k1 k.Key.k2 v)

(* Collect first, update after: Assoc_cache has no in-place sweep. *)
let rewrite t f =
  let pending =
    C.fold
      (fun k v acc ->
        let v' = f k.Key.k1 k.Key.k2 v in
        if v' <> v then (k, v') :: acc else acc)
      t.rc []
  in
  List.iter
    (fun (k, v') ->
      if v' < 0 then invalid_arg "Packed_cache.rewrite: payload must be >= 0";
      ignore (C.update t.rc k (fun _ -> v')))
    pending;
  List.length pending

let clear t = C.clear t.rc

let fold f t init =
  C.fold (fun k v acc -> f k.Key.k1 k.Key.k2 v acc) t.rc init

let hits t = C.hits t.rc
let misses t = C.misses t.rc
let evictions t = C.evictions t.rc
