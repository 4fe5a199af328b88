#pragma once
/// Published reference numbers (GCUPS) from the paper's Figure 5 and
/// Table II, used for the `paper=` comparison columns.
///
/// Caveat: the arXiv source renders Figure 5's bar labels as a partially
/// garbled digit stream; values below marked (~) were reconstructed from
/// that stream plus the prose constraints ("at most 7% slower, up to 12%
/// faster than SeqAn/NVBio", "AnySeq and SeqAn have roughly the same
/// traceback speed", "~20 GCUPS on the ZCU104", "factor of up to 1.1/1.12
/// over NVBio").

namespace anyseq::bench::paper {

// Figure 5a — long genomes (GCUPS). Order: CPU, AVX2, AVX512.
inline constexpr double fig5a_scores_linear_anyseq[3] = {69, 128, 202};   // ~
inline constexpr double fig5a_scores_linear_seqan[3] = {66, 121, 212};    // ~
inline constexpr double fig5a_scores_linear_parasail[3] = {8, 26, 26};    // ~
inline constexpr double fig5a_scores_linear_gpu_anyseq = 192;             // ~
inline constexpr double fig5a_scores_linear_gpu_nvbio = 175;              // ~
inline constexpr double fig5a_scores_linear_fpga = 20;                    // §V

inline constexpr double fig5a_tb_linear_anyseq[3] = {57, 99, 147};        // ~
inline constexpr double fig5a_tb_linear_seqan[3] = {57, 97, 136};         // ~
inline constexpr double fig5a_tb_linear_parasail[3] = {5, 14, 14};        // ~
inline constexpr double fig5a_tb_linear_gpu_anyseq = 130;                 // ~
inline constexpr double fig5a_tb_linear_gpu_nvbio = 118;                  // ~

inline constexpr double fig5a_scores_affine_anyseq[3] = {69, 121, 195};   // ~
inline constexpr double fig5a_scores_affine_seqan[3] = {69, 112, 195};    // ~
inline constexpr double fig5a_scores_affine_parasail[3] = {9, 51, 51};    // ~
inline constexpr double fig5a_scores_affine_gpu_anyseq = 181;             // ~
inline constexpr double fig5a_scores_affine_gpu_nvbio = 165;              // ~
inline constexpr double fig5a_scores_affine_fpga = 20;                    // §V

inline constexpr double fig5a_tb_affine_anyseq[3] = {56, 87, 135};        // ~
inline constexpr double fig5a_tb_affine_seqan[3] = {57, 91, 147};         // ~
inline constexpr double fig5a_tb_affine_parasail[3] = {5, 13, 13};        // ~
inline constexpr double fig5a_tb_affine_gpu_anyseq = 127;                 // ~
inline constexpr double fig5a_tb_affine_gpu_nvbio = 115;                  // ~

// Figure 5b — 12.5 M Illumina read pairs (GCUPS).
inline constexpr double fig5b_scores_linear_anyseq[3] = {11, 121, 144};   // ~
inline constexpr double fig5b_scores_linear_seqan[3] = {12, 106, 152};    // ~
inline constexpr double fig5b_scores_linear_parasail[3] = {10, 10, 10};   // ~
inline constexpr double fig5b_scores_linear_gpu_anyseq = 216;             // ~
inline constexpr double fig5b_scores_linear_gpu_nvbio = 193;              // ~

inline constexpr double fig5b_tb_linear_anyseq[3] = {9.9, 117, 164};      // ~
inline constexpr double fig5b_tb_linear_seqan[3] = {9.8, 125, 153};       // ~
inline constexpr double fig5b_tb_linear_gpu_anyseq = 98;                  // ~
inline constexpr double fig5b_tb_linear_gpu_nvbio = 88;                   // ~

inline constexpr double fig5b_scores_affine_anyseq[3] = {10, 103, 136};   // ~
inline constexpr double fig5b_scores_affine_seqan[3] = {10, 95, 139};     // ~
inline constexpr double fig5b_scores_affine_gpu_anyseq = 222;             // ~
inline constexpr double fig5b_scores_affine_gpu_nvbio = 204;              // ~

inline constexpr double fig5b_tb_affine_anyseq[3] = {8.8, 110, 151};      // ~
inline constexpr double fig5b_tb_affine_seqan[3] = {8.7, 114, 65};        // ~
inline constexpr double fig5b_tb_affine_gpu_anyseq = 114;                 // ~
inline constexpr double fig5b_tb_affine_gpu_nvbio = 143;                  // ~

// Figure 6 — parallel efficiency of the wavefront schedulers (§V prose).
inline constexpr double fig6_dynamic_eff_16 = 0.75;
inline constexpr double fig6_dynamic_eff_32 = 0.65;
inline constexpr double fig6_static_eff_16 = 0.15;
inline constexpr double fig6_static_eff_32 = 0.08;

// Table II — energy efficiency (GCUPS/W).
inline constexpr double table2_cpu_linear = 1.024;
inline constexpr double table2_cpu_affine = 0.968;
inline constexpr double table2_gpu_linear = 0.757;
inline constexpr double table2_gpu_affine = 0.696;
inline constexpr double table2_fpga_linear = 3.187;
inline constexpr double table2_fpga_affine = 3.187;
inline constexpr double table2_cpu_watts = 125;
inline constexpr double table2_gpu_watts = 250;
inline constexpr double table2_fpga_watts = 6.181;

// §IV code-share breakdown (lines of code, excluding support code).
inline constexpr double codeshare_shared = 0.52;
inline constexpr double codeshare_gpu = 0.23;
inline constexpr double codeshare_simd = 0.14;
inline constexpr double codeshare_scalar_cpu = 0.11;

}  // namespace anyseq::bench::paper
