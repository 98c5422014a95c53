module tboost/benchmark

go 1.24

require tboost v0.0.0

replace tboost => ../
