(* Frames never handed out form the implicit range [fresh, total); only
   frames that have been freed are stored, on a LIFO stack that grows on
   demand. Creation therefore costs O(1) whatever the frame count: a
   default machine has 65,536 frames and the check harness builds a
   thousand machines, each of which uses a small fraction of them.

   Pop order: freed frames, most recent first, then 0, 1, 2, ... from the
   range — what a stack holding every frame, 0 on top, would give.

   [state] is allocated uninitialised and only bytes below [fresh] are
   ever read: a frame enters [0, fresh) by being handed out, which writes
   its byte. *)

type t = {
  total : int;
  mutable fresh : int; (* frames [fresh, total) were never handed out *)
  mutable stack : int array; (* freed frames; top = stack.(sp-1) *)
  mutable sp : int;
  state : Bytes.t; (* below [fresh]: '\001' = free, '\000' = in use *)
}

let create ~frames =
  if frames <= 0 then invalid_arg "Frame_allocator.create: frames <= 0";
  { total = frames; fresh = 0; stack = [||]; sp = 0; state = Bytes.create frames }

let total t = t.total
let free_count t = t.total - t.fresh + t.sp
let used_count t = t.fresh - t.sp

(* Zero-allocation variant for hot loops: -1 when memory is full. *)
let alloc_int t =
  if t.sp > 0 then begin
    t.sp <- t.sp - 1;
    let f = Array.unsafe_get t.stack t.sp in
    Bytes.unsafe_set t.state f '\000';
    f
  end
  else if t.fresh < t.total then begin
    let f = t.fresh in
    t.fresh <- f + 1;
    Bytes.unsafe_set t.state f '\000';
    f
  end
  else -1

let alloc t =
  let f = alloc_int t in
  if f < 0 then None else Some f

let is_free t f =
  if f < 0 || f >= t.total then invalid_arg "Frame_allocator.is_free: bad frame";
  f >= t.fresh || Bytes.unsafe_get t.state f = '\001'

let free t f =
  if f < 0 || f >= t.total then invalid_arg "Frame_allocator.free: bad frame";
  if is_free t f then invalid_arg "Frame_allocator.free: double free";
  Bytes.unsafe_set t.state f '\001';
  if t.sp = Array.length t.stack then begin
    let grown = Array.make (min t.total (max 16 (2 * t.sp))) 0 in
    Array.blit t.stack 0 grown 0 t.sp;
    t.stack <- grown
  end;
  Array.unsafe_set t.stack t.sp f;
  t.sp <- t.sp + 1
