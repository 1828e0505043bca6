module seedb/benchmarks

go 1.24

require seedb v0.0.0

replace seedb => ../
