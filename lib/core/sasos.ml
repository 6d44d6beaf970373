(** sasos — architectural simulation of protection models for single
    address space operating systems.

    This module is the library's public face: it re-exports the layered
    libraries under one namespace. A downstream user writes
    [Sasos.Config.v ...], [Sasos.Machines.make Plb ...],
    [Sasos.Workloads.Gc.run ...], [Sasos.Experiments.Registry.run_all ()].

    Layering (see DESIGN.md):
    - {!Util}: PRNG, Zipf sampling, tables, summaries
    - {!Addr}: virtual addresses, rights, domains, geometry
    - {!Hw}: TLB, PLB, page-group cache, data cache, metrics, cost model
    - {!Mem}: frames, inverted page table, backing store, compressor
    - {!Os}: segments, configuration, the SYSTEM interface, shared OS state
    - {!Machines}: the protection-machine implementations (PLB,
      page-group, protection-keys, conventional MAS)
    - {!Workloads}: the Table 1 application classes and supporting streams
    - {!Trace}: portable operation traces (record / replay / store)
    - {!Experiments}: one module per paper table/figure/claim
    - {!Runner}: parallel, fault-isolated execution of the experiment
      registry on a pool of OCaml 5 domains
    - {!Shard}: sharded million-domain simulation driving one machine
      instance per shard with deterministic cross-shard churn
      (`sasos scale`)
    - {!Check}: differential conformance harness — a pure reference
      oracle, seed-reproducible script generation, deterministic
      shrinking and a persisted failure corpus (`sasos check`) *)

module Util = struct
  module Prng = Sasos_util.Prng
  module Zipf = Sasos_util.Zipf
  module Bits = Sasos_util.Bits
  module Tablefmt = Sasos_util.Tablefmt
  module Summary = Sasos_util.Summary
  module Histogram = Sasos_util.Histogram
  module Sparkline = Sasos_util.Sparkline
  module Flat_tab = Sasos_util.Flat_tab
  module Int_queue = Sasos_util.Int_queue
  module Pool = Sasos_util.Pool
end

module Addr = struct
  module Va = Sasos_addr.Va
  module Rights = Sasos_addr.Rights
  module Pd = Sasos_addr.Pd
  module Geometry = Sasos_addr.Geometry
  module Access = Sasos_addr.Access
end

module Hw = struct
  module Replacement = Sasos_hw.Replacement
  module Packed_cache = Sasos_hw.Packed_cache
  module Tlb = Sasos_hw.Tlb
  module Plb = Sasos_hw.Plb
  module Page_group_cache = Sasos_hw.Page_group_cache
  module Data_cache = Sasos_hw.Data_cache
  module Key_regs = Sasos_hw.Key_regs
  module Metrics = Sasos_hw.Metrics
  module Cost_model = Sasos_hw.Cost_model
  module Probe = Sasos_hw.Probe
end

module Mem = struct
  module Frame_allocator = Sasos_mem.Frame_allocator
  module Inverted_page_table = Sasos_mem.Inverted_page_table
  module Backing_store = Sasos_mem.Backing_store
  module Compressor = Sasos_mem.Compressor
end

module Os = struct
  module Segment = Sasos_os.Segment
  module Segment_table = Sasos_os.Segment_table
  module Config = Sasos_os.Config
  module Os_core = Sasos_os.Os_core
  module System_intf = Sasos_os.System_intf
  module System_ops = Sasos_os.System_ops
  module Capability = Sasos_os.Capability
  module Cap_registry = Sasos_os.Cap_registry
end

(* flat aliases for the most common names *)
module Va = Sasos_addr.Va
module Rights = Sasos_addr.Rights
module Pd = Sasos_addr.Pd
module Geometry = Sasos_addr.Geometry
module Access = Sasos_addr.Access
module Metrics = Sasos_hw.Metrics
module Config = Sasos_os.Config
module Segment = Sasos_os.Segment
module System_ops = Sasos_os.System_ops

module Machines = struct
  module Plb_machine = Sasos_machine.Plb_machine
  module Pg_machine = Sasos_machine.Pg_machine
  module Pk_machine = Sasos_machine.Pk_machine
  module Conv_machine = Sasos_machine.Conv_machine
  include Sasos_machine.Sys_select
end

module Workloads = struct
  module Synthetic = Sasos_workloads.Synthetic
  module Rpc = Sasos_workloads.Rpc
  module Gc = Sasos_workloads.Gc
  module Dsm = Sasos_workloads.Dsm
  module Txn = Sasos_workloads.Txn
  module Checkpoint = Sasos_workloads.Checkpoint
  module Compress_paging = Sasos_workloads.Compress_paging
  module Attach_churn = Sasos_workloads.Attach_churn
  module Server_os = Sasos_workloads.Server_os
  module Registry = Sasos_workloads.Registry
end

module Trace = struct
  module Event = Sasos_trace.Event
  module Recorder = Sasos_trace.Recorder
  module Player = Sasos_trace.Player
  module Store = Sasos_trace.Store
  module Stats = Sasos_trace.Stats
end

module Experiments = struct
  module Experiment = Sasos_experiments.Experiment
  module Registry = Sasos_experiments.Registry
end

module Obs = Sasos_obs.Obs
module Smp = Sasos_smp.Smp
module Runner = Sasos_runner.Runner
module Shard = Sasos_shard.Shard
module Dash = Sasos_shard.Dash
module Trend = Sasos_trend.Trend
module Engine = Sasos_engine.Engine
module Kernel = Sasos_engine.Kernel

module Check = struct
  module Op = Sasos_check.Op
  module Oracle = Sasos_check.Oracle
  module Gen = Sasos_check.Gen
  module Exec = Sasos_check.Exec
  module Mutate = Sasos_check.Mutate
  module Shrink = Sasos_check.Shrink
  module Corpus = Sasos_check.Corpus
  module Harness = Sasos_check.Harness
end
