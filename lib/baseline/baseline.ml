module Arch = Fpfa_arch.Arch
module Flow = Fpfa_core.Flow

type variant = { vname : string; config : Flow.config }

let paper = { vname = "paper"; config = Flow.default_config }

let sequential =
  {
    vname = "sequential";
    config =
      {
        Flow.default_config with
        Flow.tile = Arch.with_alu_count 1 Arch.paper_tile;
      };
  }

let unit_ops =
  {
    vname = "unit-ops";
    config = { Flow.default_config with Flow.caps = Some Arch.unit_alu };
  }

let sarkar =
  {
    vname = "sarkar";
    config =
      {
        Flow.default_config with
        Flow.cluster_with = (fun ~caps g -> Mapping.Cluster.sarkar ~caps g);
      };
  }

let no_locality =
  {
    vname = "no-locality";
    config =
      {
        Flow.default_config with
        Flow.alloc_options =
          { Mapping.Alloc.default_options with Mapping.Alloc.locality = false };
      };
  }

let with_forwarding =
  {
    vname = "forwarding";
    config =
      {
        Flow.default_config with
        Flow.alloc_options =
          { Mapping.Alloc.default_options with Mapping.Alloc.forwarding = true };
      };
  }

let interleaved =
  {
    vname = "interleaved";
    config =
      {
        Flow.default_config with
        Flow.alloc_options =
          { Mapping.Alloc.default_options with Mapping.Alloc.interleave = true };
      };
  }

let all =
  [ paper; sequential; unit_ops; sarkar; no_locality; with_forwarding;
    interleaved ]

let find name = List.find_opt (fun v -> String.equal v.vname name) all

let map_source v ?func source = Flow.map_source ~config:v.config ?func source

let map_graph v g = Flow.map_graph ~config:v.config g
