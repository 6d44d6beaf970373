(* Entries live in a Packed_cache: k1 = AID, k2 = 0, payload 0/1 = the
   write-disable bit. The cache is a single set, so the multiplicative
   AID hash never changes placement. *)

let hash_of aid = aid * 0x9e3779b1

type t = { cache : Packed_cache.t; probe : Probe.t }

let create ?policy ?seed ?(probe = Probe.null) ~entries () =
  if entries < 1 then invalid_arg "Page_group_cache.create: entries >= 1";
  {
    cache = Packed_cache.create ?policy ?seed ~sets:1 ~ways:entries ();
    probe;
  }

let note_occupancy t =
  Probe.set_occupancy t.probe Probe.Pg_cache (Packed_cache.length t.cache)

let capacity t = Packed_cache.capacity t.cache
let length t = Packed_cache.length t.cache

type check = Denied | Allowed of { write_disabled : bool }

(* -1 denied, 0 allowed, 1 allowed with writes disabled. AID 0 is a fixed
   comparison in hardware: always allowed, never counted. *)
let check_bits t ~aid =
  if aid = 0 then 0
  else Packed_cache.find t.cache ~hash:(hash_of aid) ~k1:aid ~k2:0

let check t ~aid =
  let c = check_bits t ~aid in
  if c < 0 then Denied else Allowed { write_disabled = c = 1 }

let load t ~aid ~write_disabled =
  if aid <> 0 then begin
    Packed_cache.insert t.cache ~hash:(hash_of aid) ~k1:aid ~k2:0
      (if write_disabled then 1 else 0);
    Probe.note_fill t.probe Probe.Pg_cache;
    note_occupancy t
  end

let set_write_disable t ~aid d =
  Packed_cache.set t.cache ~hash:(hash_of aid) ~k1:aid ~k2:0
    (if d then 1 else 0)

let drop t ~aid =
  let removed = Packed_cache.remove t.cache ~hash:(hash_of aid) ~k1:aid ~k2:0 in
  if removed then begin
    Probe.note_purged t.probe Probe.Pg_cache 1;
    note_occupancy t
  end;
  removed

let flush t =
  let dropped = Packed_cache.clear t.cache in
  Probe.note_purged t.probe Probe.Pg_cache dropped;
  note_occupancy t;
  dropped

let resident t ~aid =
  aid = 0 || Packed_cache.mem t.cache ~hash:(hash_of aid) ~k1:aid ~k2:0

let iter f t = Packed_cache.iter (fun aid _k2 d -> f aid (d = 1)) t.cache
let hits t = Packed_cache.hits t.cache
let misses t = Packed_cache.misses t.cache
let reset_stats t = Packed_cache.reset_stats t.cache
