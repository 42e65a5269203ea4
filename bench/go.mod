module subgraphmr/bench

go 1.24

require subgraphmr v0.0.0

replace subgraphmr => ../
