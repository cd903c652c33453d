package cmdstream

// PipelineFrameTokens is the number of frame buffers a PipelineSource
// circulates, for tests that fill every one.
const PipelineFrameTokens = pipelineFrameTokens
