open Sasos_addr

(** Set-associative data cache with selectable indexing and tagging.

    §2.2 of the paper argues that a virtually indexed, virtually tagged
    (VIVT) cache is the fastest organization and that a single address space
    removes its two classical problems (synonyms and homonyms). This model
    supports the three disciplines so the [cache_org] experiment can compare
    them:

    - [Vivt]: indexed and tagged by virtual address; optionally space-tagged
      (ASID per line) on MAS machines, or flushed on switch.
    - [Vipt]: indexed by virtual address, tagged by physical address.
    - [Pipt]: indexed and tagged by physical address (translation needed
      before every access).

    The cache tracks, per line, the physical line it holds, which lets it
    detect synonyms (one physical line resident under two different tags) —
    the coherence hazard the paper discusses. Detection is a counter, not a
    crash: MAS workloads are expected to trigger it, SAS workloads never.

    Flushes cost simulated cycles, billed by the machines, and host time
    here. The cache keeps one valid bit per line, so a flush need not look
    at every line: it walks either the sets its lines index to or the
    valid bits, one step per 32 lines of the cache plus one per valid
    line. Which lines a flush takes, and so every count and gauge, does
    not depend on the walk. *)

type org = Vivt | Vipt | Pipt

val org_to_string : org -> string

type t

val create :
  ?policy:Replacement.t ->
  ?seed:int ->
  ?probe:Probe.t ->
  ?probe_as:Probe.structure ->
  org:org ->
  size_bytes:int ->
  line_bytes:int ->
  ways:int ->
  unit ->
  t
(** [probe] receives occupancy/fill/purge gauge writes under the
    [probe_as] slot (default {!Probe.L1_cache}; an L2 instance passes
    {!Probe.L2_cache}).
    @raise Invalid_argument unless sizes are powers of two and consistent. *)

val org : t -> org
val lines : t -> int
val line_bytes : t -> int
val sets : t -> int

type result = Hit | Miss of { writeback : bool }

val access : t -> space:int -> va:Va.t -> pa:int -> write:bool -> result
(** One load/store. [space] is the homonym tag (0 on SAS machines and on
    physically tagged lines where it is unnecessary); [pa] is the physical
    byte address, used for physical indexing/tagging and synonym tracking. *)

val access_bits : t -> space:int -> va:Va.t -> pa:int -> write:bool -> int
(** {!access} without the result record: [0] = hit, [1] = miss, [3] = miss
    that wrote back a dirty victim. Never allocates — the hot-loop form. *)

val flush_va_range : t -> space:int -> lo:Va.t -> hi:Va.t -> int * int
(** Flush (writeback + invalidate) every line filled through a virtual
    address in [lo, hi) — and, on [Vivt], under [space]; returns
    [(lines_flushed, writebacks)]. Used when unmapping a page. Every
    organization matches the virtual line each line was filled through,
    [Pipt] included. [Vivt] and [Vipt] caches index by that line, so a
    range of fewer lines than {!sets} walks the sets it maps to or the
    valid bits, whichever takes fewer steps (the range's lines times the
    ways, against the valid lines plus the bitmap's words); [Pipt] caches,
    and longer ranges, walk the valid bits. *)

val flush_va_range_count : t -> space:int -> lo:Va.t -> hi:Va.t -> int
(** {!flush_va_range} without the result pair: returns the flushed-line
    count only. Never allocates — the page-replacement form. *)

val flush_pa_page : t -> pfn:int -> page_shift:int -> int * int
(** Flush every line resident for the given physical page; returns
    [(lines_flushed, writebacks)]. A [Pipt] cache indexes by the page's
    lines: when the page has fewer lines than {!sets} it walks their sets
    or the valid bits, whichever takes fewer steps. [Vivt] and [Vipt]
    caches, indexed by virtual address, walk the valid bits.
    @raise Invalid_argument if the page is smaller than a line. *)

val flush_all : t -> int * int
(** Full flush: [(lines, writebacks)]. Walks the valid bits, so its host
    cost follows the valid lines, plus one step per 32 lines of the
    cache. *)

val resident_copies_of_pa : t -> pa_line:int -> int
(** Number of lines currently holding the given physical line (>1 means a
    synonym is resident). *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int
val synonyms_detected : t -> int
(** Incremented whenever a fill makes a physical line resident under a
    second distinct (space, tag). *)

val reset_stats : t -> unit
